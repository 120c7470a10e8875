(* Bench-side trace spans for the traced run.

   A span is (name, start, end, parent), recorded around one call into a
   layer of the program from the benchmark's own code: the compiler
   passes, the interpreter, a wrapped communication executor, a plan
   build.  Spans are kept in memory and only aggregated when the run
   ends; a layer's self time is its span's duration minus the time its
   direct child spans cover.  Recording is off unless [enabled], so the
   untraced run pays one branch per call.  Spans are recorded from the
   benchmark's main domain only. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; t0 = Clock.now (); t1 = Float.nan } in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Clock.now ();
        stack := List.tl !stack)
      f
  end

(* Per span name: (calls, total self seconds). *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((try Hashtbl.find child s.parent with Not_found -> 0.0)
          +. (s.t1 -. s.t0)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. (try Hashtbl.find child s.id with Not_found -> 0.0)
      in
      let n, t = try Hashtbl.find acc s.name with Not_found -> (0, 0.0) in
      Hashtbl.replace acc s.name (n + 1, t +. self))
    !spans;
  acc

(* Total self milliseconds and number of calls of the named span. *)
let total_ms tbl name =
  match Hashtbl.find_opt tbl name with Some (_, t) -> t *. 1e3 | None -> 0.0

let calls tbl name =
  match Hashtbl.find_opt tbl name with Some (n, _) -> n | None -> 0
