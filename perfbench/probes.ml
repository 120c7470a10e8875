(* Hardware probes: the yardstick every end-to-end timing is scaled by.

   They are written against the OCaml standard library and [Bigarray]
   only — never against the runtime's own [Buf] or any other module of
   the program — so that no change to the program can move them.  Each
   probe does a fixed amount of work:

   - [gather]: an interleaved stride-4 gather of 100 000 doubles into
     another 100 000 (dst[r * n/4 + i] = src[4 i + r]), the memory-system
     shape and working set of a block -> cyclic remap made of unit
     segments (the yardstick of the remap, remap-par and serve
     workloads);
   - [alloc]: string-keyed [Hashtbl] lookups, boxed float updates and
     small-block allocation, the shape of the interpreter and the
     compiler passes (the yardstick of the kernels workload and of the
     set-up times of kernels, remap and serve);
   - [memcpy]: one [Bigarray.Array1.blit] of 100 000 doubles;
   - [alu]: a dependent integer multiply-add chain that touches no
     memory;
   - [pair]: the [gather] work split over two threads of control (the
     main domain and one helper domain, each on its own arrays) in 4
     steps with a mutex/condition barrier after each, the shape of a
     two-domain stepped remap or of a service handing requests to a
     worker domain (the yardstick of the remap-par and serve workloads
     and of remap-par's set-up: it also slows when one of the box's CPUs
     is taken away).

   The last two are reported raw in the traced run only, as regime
   indicators: a swing in [memcpy] with a steady [alu] says the box's
   memory system, not its clock, moved. *)

open Bigarray

type kind = Gather | Alloc | Memcpy | Alu | Pair

let name = function
  | Gather -> "gather"
  | Alloc -> "alloc"
  | Memcpy -> "memcpy"
  | Alu -> "alu"
  | Pair -> "pair"

let n = 100_000

let f64 len =
  let a = Array1.create float64 c_layout len in
  Array1.fill a 0.0;
  a

let src =
  lazy
    (let a = f64 n in
     for i = 0 to n - 1 do
       Array1.unsafe_set a i (float_of_int i)
     done;
     a)

let dst = lazy (f64 n)

let gather () =
  let s = Lazy.force src and d = Lazy.force dst in
  let q = n / 4 in
  for r = 0 to 3 do
    for i = 0 to q - 1 do
      Array1.unsafe_set d ((r * q) + i) (Array1.unsafe_get s ((4 * i) + r))
    done
  done

let memcpy () = Array1.blit (Lazy.force src) (Lazy.force dst)

let keys = Array.init 256 (fun i -> "k" ^ string_of_int i)

let alloc () =
  let h = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace h k (ref 0.0)) keys;
  let acc = ref [] in
  for i = 0 to 19_999 do
    let r = Hashtbl.find h keys.(i land 255) in
    r := !r +. float_of_int i;
    if i land 7 = 0 then acc := [| i; i + 1 |] :: !acc
  done;
  ignore (Sys.opaque_identity !acc)

let alu () =
  let x = ref 1 in
  for _ = 1 to 1_000_000 do
    x := (!x * 25214903917) + 11
  done;
  ignore (Sys.opaque_identity !x)

(* [pair]: a helper domain, started on first use and joined at exit,
   runs the same steps as the caller; both meet at a barrier after each
   step. *)
type barrier = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable arrived : int;
  mutable round : int;
  mutable work : int;  (** pending probe calls for the helper *)
  mutable quit : bool;
}

let bar =
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    arrived = 0;
    round = 0;
    work = 0;
    quit = false;
  }

let await () =
  Mutex.lock bar.lock;
  let r = bar.round in
  bar.arrived <- bar.arrived + 1;
  if bar.arrived = 2 then begin
    bar.arrived <- 0;
    bar.round <- r + 1;
    Condition.broadcast bar.cond
  end
  else
    while bar.round = r do
      Condition.wait bar.cond bar.lock
    done;
  Mutex.unlock bar.lock

let steps = 4

(* Half of [gather]'s rows per step, over one thread's own arrays. *)
let half_gather s d =
  let q = n / 4 in
  for r = 0 to 1 do
    for i = 0 to q - 1 do
      Array1.unsafe_set d ((r * q) + i) (Array1.unsafe_get s ((4 * i) + r))
    done
  done

let pair_steps s d =
  for _ = 1 to steps do
    half_gather s d;
    await ()
  done

let helper =
  lazy
    (let s = f64 n and d = f64 n in
     let dom =
       Domain.spawn (fun () ->
           let rec loop () =
             Mutex.lock bar.lock;
             while bar.work = 0 && not bar.quit do
               Condition.wait bar.cond bar.lock
             done;
             let quit = bar.quit in
             if not quit then bar.work <- bar.work - 1;
             Mutex.unlock bar.lock;
             if not quit then begin
               pair_steps s d;
               loop ()
             end
           in
           loop ())
     in
     at_exit (fun () ->
         Mutex.lock bar.lock;
         bar.quit <- true;
         Condition.broadcast bar.cond;
         Mutex.unlock bar.lock;
         Domain.join dom);
     ())

let pair () =
  Lazy.force helper;
  Mutex.lock bar.lock;
  bar.work <- bar.work + 1;
  Condition.broadcast bar.cond;
  Mutex.unlock bar.lock;
  pair_steps (Lazy.force src) (Lazy.force dst)

let run = function
  | Gather -> gather ()
  | Alloc -> alloc ()
  | Memcpy -> memcpy ()
  | Alu -> alu ()
  | Pair -> pair ()

(* Probe repetitions per probe slice: roughly 1-2 ms each, short next to
   the slices they bracket but long next to the clock's resolution. *)
let reps = function
  | Gather -> 10
  | Alloc -> 2
  | Memcpy -> 20
  | Alu -> 2
  | Pair -> 1

(* Milliseconds of one probe repetition on the reference machine, recorded
   once (median over repeated runs on a 2-vCPU x86-64 container, OCaml
   5.1 native code) and never re-measured: a probe-scaled metric is
   [median (slice / adjacent probe)] times this constant, so it reads in
   the reference machine's milliseconds. *)
let ref_ms = function
  | Gather -> 0.2
  | Alloc -> 1.0
  | Memcpy -> 0.027
  | Alu -> 1.7
  | Pair -> 6.0

(* One probe slice: milliseconds per repetition. *)
let slice kind =
  let k = reps kind in
  let t0 = Clock.now () in
  for _ = 1 to k do
    run kind
  done;
  (Clock.now () -. t0) *. 1e3 /. float_of_int k

let all = [ Gather; Alloc; Memcpy; Alu; Pair ]
