(* The remap and remap-par workloads: one array remapped between warm
   layout pairs, closed loop, every (path, pair) class interleaved round
   robin.

   Pairs (P ranks, n elements):
   - b2c4:  block -> cyclic, n = 1e5, P = 4 (175k mostly unit segments);
   - b2c8:  block -> cyclic, n = 1e5, P = 8 (balanced fan-out);
   - c3b:   cyclic(3) -> block, odd n = 100 003, P = 4 (skewed);
   - 2d:    (block, * ) -> ( *, block), 316 x 316, P = 4 (long runs);
   - b2c64: block -> cyclic(64), n = 1e5, P = 4.

   remap runs each pair through the canonical zero-copy, the distributed
   staged point-to-point and the distributed collective path; remap-par
   through a 2-domain [Par] pool, stepped and async.  Before every remap
   the destination is poisoned with nan; after it, every element must
   equal its global position (the source fill is [float_of_int]) and the
   counters must prove the path ([Adapter.verify]).  Cold plan building,
   lowering and run compilation land in the set-up; the timed remaps are
   warm.  Yardsticks: the [Gather] probe for remap, the two-domain
   [Pair] probe for remap-par. *)

module Store = Hpfc_runtime.Store
module Machine = Hpfc_runtime.Machine
module Redist = Hpfc_runtime.Redist
module Buf = Hpfc_runtime.Buf
module Par = Hpfc_par.Par
module Layout = Hpfc_mapping.Layout
module Mapping = Hpfc_mapping.Mapping
module Dist = Hpfc_mapping.Dist
module Procs = Hpfc_mapping.Procs

type pair = {
  pname : string;
  nprocs : int;
  extents : int array;
  src_dist : Dist.format array;
  dst_dist : Dist.format array;
}

let pairs =
  let d1 pname nprocs n s t =
    { pname; nprocs; extents = [| n |]; src_dist = [| s |]; dst_dist = [| t |] }
  in
  [
    d1 "b2c4" 4 100_000 Dist.block Dist.cyclic;
    d1 "b2c8" 8 100_000 Dist.block Dist.cyclic;
    d1 "c3b" 4 100_003 (Dist.cyclic_sized 3) Dist.block;
    {
      pname = "2d";
      nprocs = 4;
      extents = [| 316; 316 |];
      src_dist = [| Dist.block; Dist.star |];
      dst_dist = [| Dist.star; Dist.block |];
    };
    d1 "b2c64" 4 100_000 Dist.block (Dist.cyclic_sized 64);
  ]

let layout pair dist =
  Layout.of_mapping ~extents:pair.extents
    (Mapping.direct ~array_name:"a" ~extents:pair.extents ~dist
       ~procs:(Procs.linear "P" pair.nprocs))

let buffers (c : Store.copy) =
  match c.Store.payload with Store.Global g -> [| g |] | Store.Locals ls -> ls

let poison bufs = Array.iter (fun b -> Buf.fill b Float.nan) bufs

(* Elements of [got] that differ from [expected] (nan never matches). *)
let diff ~expected ~got =
  let bad = ref 0 in
  Array.iteri
    (fun r e ->
      let g = got.(r) in
      for k = 0 to Buf.length e - 1 do
        if Buf.get g k <> Buf.get e k then incr bad
      done)
    expected;
  !bad

type inst = {
  path : Adapter.path;
  pair : pair;
  machine : Machine.t;
  plan : Redist.plan;
  remap : unit -> unit;
  dst : Buf.t array;
  expected : Buf.t array;
}

(* A store with version 0 (source layout, current) and version 1
   (destination layout) allocated, and its remap under [path]. *)
let store_for ?pool ~plans path pair (src_l, dst_l) =
  let m =
    Machine.create ~nprocs:pair.nprocs ~sched:Machine.Stepped
      ~record_trace:!Span.enabled ()
  in
  let exec = Adapter.executor ?pool path in
  let exec : Hpfc_runtime.Comm.executor =
    if !Span.enabled then fun m ~src ~dst plan ->
      Span.with_span "comm" (fun () -> exec m ~src ~dst plan)
    else exec
  in
  let s = Store.create ~backend:(Adapter.backend path) ~executor:exec ~plans m in
  let d =
    Store.add_descriptor s ~name:"a" ~extents:pair.extents ~nb_versions:2 ()
  in
  Store.alloc s d 0 src_l;
  d.Store.status <- Some 0;
  Store.set_live s d 0 true;
  Store.alloc s d 1 dst_l;
  let remap () =
    Adapter.with_path path (fun () ->
        Store.copy_version s d ~src:0 ~dst:1 ~with_data:true)
  in
  (m, s, d, remap)

(* A timed instance: the source filled with [float_of_int], a reference
   copy of the destination layout filled directly, and the first remap
   run (cold). *)
let make_inst ?pool ~plans path pair ls =
  let m, s, d, remap = store_for ?pool ~plans path pair ls in
  Store.fill_copy (Store.get_copy d 0) float_of_int;
  let r =
    Store.add_descriptor s ~name:"ref" ~extents:pair.extents ~nb_versions:1 ()
  in
  Store.alloc s r 0 (snd ls);
  Store.fill_copy (Store.get_copy r 0) float_of_int;
  remap ();
  {
    path;
    pair;
    machine = m;
    plan = Store.plan_for s d ~src:0 ~dst:1;
    remap;
    dst = buffers (Store.get_copy d 1);
    expected = buffers (Store.get_copy r 0);
  }

let each_pair f =
  List.concat_map
    (fun pair ->
      let ls = (layout pair pair.src_dist, layout pair pair.dst_dist) in
      f pair ls (Redist.Plan_cache.create ~capacity:16 ()))
    pairs

(* Every (path, pair) instance, pairs sharing one plan cache across
   paths. *)
let build ?pool paths =
  each_pair (fun pair ls plans ->
      List.map (fun path -> make_inst ?pool ~plans path pair ls) paths)

(* One cold set-up as a fresh process pays it: layouts, stores, the plan
   build and lowerings, run compilation and the first remap of every
   (path, pair) — without the benchmark's own fills and references. *)
let cold ?pool paths =
  ignore
    (each_pair (fun pair ls plans ->
         List.map
           (fun path ->
             let _, _, _, remap = store_for ?pool ~plans path pair ls in
             remap ())
           paths)
      : unit list)

let class_of i =
  let before = ref (Machine.fresh_counters ()) in
  Harness.cls ~group:(Adapter.name i.path) ~reps:4
    ~prepare:(fun () ->
      before := Machine.snapshot_counters i.machine;
      poison i.dst)
    ~check:(fun () ->
      let ok =
        diff ~expected:i.expected ~got:i.dst = 0
        && Adapter.verify i.path ~before:!before
             ~after:i.machine.Machine.counters ~plan:i.plan ~remaps:1
      in
      if ok then 0 else 1)
    (Adapter.name i.path ^ "." ^ i.pair.pname)
    i.remap

(* Per remap of each instance, summed: the modeled counters repeat
   exactly from run to run, whatever the number of remaps timed. *)
let per_remap insts f =
  List.fold_left
    (fun acc i ->
      let c = i.machine.Machine.counters in
      acc +. (f c /. float_of_int (max 1 c.Machine.remaps_performed)))
    0.0 insts

(* Cold plan build, both lowerings and run compilation of every pair,
   each timed on its own, for the traced run. *)
let cold_layers () =
  let plan_ms = ref [] and steps_ms = ref [] and phases_ms = ref []
  and runs_ms = ref [] and segments = ref 0 and hit_us = ref [] in
  List.iter
    (fun pair ->
      let src = layout pair pair.src_dist and dst = layout pair pair.dst_dist in
      let span name f =
        let r, t = Clock.time (fun () -> Span.with_span name f) in
        (r, t *. 1e3)
      in
      let plan, t = span "plan" (fun () -> Redist.plan_intervals ~src ~dst) in
      plan_ms := t :: !plan_ms;
      let _, t = span "lower" (fun () -> Redist.step_program plan) in
      steps_ms := t :: !steps_ms;
      let _, t = span "lower" (fun () -> Redist.collective_program plan) in
      phases_ms := t :: !phases_ms;
      let a = Redist.Owner_local src and b = Redist.Owner_local dst in
      let _, t =
        span "runs" (fun () ->
            List.iter
              (fun msg ->
                match Redist.message_datapath ~src:a ~dst:b msg with
                | Redist.Direct runs | Redist.Staged runs ->
                  segments := !segments + Redist.nb_run_segments runs)
              (plan.Redist.moves @ plan.Redist.locals))
      in
      runs_ms := t :: !runs_ms;
      let cache = Redist.Plan_cache.create ~capacity:16 () in
      let find () = Redist.Plan_cache.find cache ~src ~dst (fun () -> plan) in
      ignore (find () : Redist.plan);
      let k = 2000 in
      let (), t =
        Clock.time (fun () ->
            for _ = 1 to k do
              ignore (Sys.opaque_identity (find ()))
            done)
      in
      hit_us := (t *. 1e6 /. float_of_int k) :: !hit_us)
    pairs;
  Harness.
    [
      metric "plan.build_ms" "ms" (Stats.mean !plan_ms);
      metric "plan.hit_us" "us" (Stats.mean !hit_us);
      metric "lower.steps_ms" "ms" (Stats.mean !steps_ms);
      metric "lower.phases_ms" "ms" (Stats.mean !phases_ms);
      metric "runs.compile_ms" "ms" (Stats.mean !runs_ms);
      metric "runs.segments" "count" (float_of_int !segments);
    ]

let remap_layers insts () =
  let sum f = per_remap insts (fun c -> float_of_int (f c)) in
  let fold op f =
    float_of_int
      (List.fold_left (fun a i -> op a (f i.machine.Machine.counters)) 0 insts)
  in
  let hits = fold ( + ) (fun c -> c.Machine.pool_hits)
  and misses = fold ( + ) (fun c -> c.Machine.pool_misses) in
  cold_layers ()
  @ Harness.
      [
        metric "comm.staged_bytes" "B" (sum (fun c -> c.Machine.staged_bytes));
        metric "comm.zero_copy_runs" "count"
          (sum (fun c -> c.Machine.zero_copy_runs));
        metric "comm.pool_hit_ratio" "ratio"
          (hits /. Float.max 1.0 (hits +. misses));
        metric "comm.lease_peak" "count"
          (fold max (fun c -> c.Machine.pool_lease_peak));
        metric "model.messages" "count" (sum (fun c -> c.Machine.messages));
        metric "model.volume" "count" (sum (fun c -> c.Machine.volume));
        metric "model.steps" "count" (sum (fun c -> c.Machine.steps));
        metric "model.peak_bytes" "B" (fold ( + ) (fun c -> c.Machine.peak_bytes));
        metric "model.time" "model" (per_remap insts (fun c -> c.Machine.time));
      ]

let par_layers pool insts () =
  let walls f =
    List.concat_map
      (fun i -> List.filter_map f (Machine.events i.machine))
      insts
  in
  let steps =
    walls (function Machine.Wall_step { wall; _ } -> Some wall | _ -> None)
  and msgs =
    walls (function Machine.Wall_msg { wall; _ } -> Some wall | _ -> None)
  in
  Harness.
    [
      metric "par.wall_step_ms" "ms" (Stats.mean steps *. 1e3);
      metric "par.wall_msg_p50_us" "us" (Stats.median msgs *. 1e6);
      metric "par.leases_peak" "count"
        (float_of_int (Par.last_max_leases pool));
    ]

let make_remap () =
  let paths = Adapter.[ Canon; Staged; Coll ] in
  let insts = build paths in
  {
    Harness.probe = Probes.Gather;
    classes = List.map class_of insts;
    cold_setup = (fun () -> cold paths);
    setup_probe = Probes.Alloc;
    nsetup = 16;
    layers = remap_layers insts;
    close = ignore;
  }

let domains = 2

let make_par () =
  let paths = Adapter.[ Stepped; Async ] in
  let pool = Par.create ~ndomains:domains () in
  let insts = build ~pool paths in
  {
    Harness.probe = Probes.Pair;
    classes = List.map class_of insts;
    cold_setup =
      (fun () ->
        let p = Par.create ~ndomains:domains () in
        Fun.protect
          ~finally:(fun () -> Par.destroy p)
          (fun () -> cold ~pool:p paths));
    setup_probe = Probes.Pair;
    nsetup = 16;
    layers = par_layers pool insts;
    close = (fun () -> Par.destroy pool);
  }
