(* The one place that selects an execution path of the remap runtime.

   A path is a store backend, a communication executor and a setting of
   the runtime's process-global switches ([Comm.force_scalar],
   [Comm.force_staged], [Comm.force_async], [Comm.force_lower]).
   [with_path] sets the switches for one call and restores what was there
   before, whatever the call does; [verify] then proves from the machine
   counters that the intended path really ran.  When the switches become
   an immutable execution config, this module is the only one of the
   benchmark to adapt. *)

module Comm = Hpfc_runtime.Comm
module Store = Hpfc_runtime.Store
module Machine = Hpfc_runtime.Machine
module Redist = Hpfc_runtime.Redist
module Par = Hpfc_par.Par

type path =
  | Canon  (** canonical backend, zero-copy direct messages *)
  | Staged  (** distributed backend, point-to-point staged messages *)
  | Coll  (** distributed backend, budget-sliced collective lowering *)
  | Stepped  (** domain pool, barrier per step *)
  | Async  (** domain pool, per-message completion *)

let name = function
  | Canon -> "canon"
  | Staged -> "staged"
  | Coll -> "coll"
  | Stepped -> "stepped"
  | Async -> "async"

let backend = function Canon -> Store.Canonical | _ -> Store.Distributed

let executor ?pool path : Comm.executor =
  match (path, pool) with
  | (Stepped | Async), Some p -> Par.executor ~async:(path = Async) p
  | (Stepped | Async), None -> invalid_arg "Adapter.executor: path needs a pool"
  | (Canon | Staged | Coll), _ -> Comm.execute

type switches = {
  scalar : bool;
  staged : bool;
  async : bool;
  lower : Comm.lowering;
}

let current () =
  {
    scalar = !Comm.force_scalar;
    staged = !Comm.force_staged;
    async = !Comm.force_async;
    lower = !Comm.force_lower;
  }

let set s =
  Comm.force_scalar := s.scalar;
  Comm.force_staged := s.staged;
  Comm.force_async := s.async;
  Comm.force_lower := s.lower

(* The runtime's defaults (blit zero-copy datapath, stepped discipline,
   point-to-point lowering), pinned for the whole run so that an
   HPFC_FORCE_* variable in the environment cannot change what the
   benchmark measures. *)
let defaults =
  { scalar = false; staged = false; async = false; lower = Comm.Lower_p2p }

let switches_of path =
  {
    defaults with
    async = path = Async;
    lower = (if path = Coll then Comm.Lower_collective else Comm.Lower_p2p);
  }

let with_path path f =
  let saved = current () in
  set (switches_of path);
  Fun.protect ~finally:(fun () -> set saved) f

(* Did [remaps] executions of [plan] on [path], which moved the machine
   counters from [before] to [after], take that path?  Machines must
   charge in [Machine.Stepped] mode (steps are only counted there).

   - canonical: no byte staged, some zero-copy run;
   - staged and stepped: every moved element staged once (8 bytes), the
     point-to-point step count, no async completion;
   - collective: every moved element staged, one step per phase;
   - async: one completion per message. *)
let verify path ~(before : Machine.counters) ~(after : Machine.counters) ~plan
    ~remaps =
  let d f = f after - f before in
  let volume = d (fun c -> c.Machine.volume)
  and staged = d (fun c -> c.Machine.staged_bytes)
  and steps = d (fun c -> c.Machine.steps)
  and messages = d (fun c -> c.Machine.messages)
  and completions = d (fun c -> c.Machine.async_completions) in
  let p2p_steps = remaps * List.length (Redist.step_program plan) in
  match path with
  | Canon -> staged = 0 && d (fun c -> c.Machine.zero_copy_runs) > 0
  | Staged | Stepped ->
    staged = 8 * volume && steps = p2p_steps && completions = 0
  | Coll ->
    staged = 8 * volume
    && steps = remaps * Redist.nb_phases (Redist.collective_program plan)
  | Async -> completions = messages && staged = 8 * volume
