(* Slice timing with probe bracketing, interleaved set-up samples, and the
   result line.

   A workload is a list of op classes.  One slice of a class runs [reps]
   ops back to back; only the op itself is timed — the per-op [prepare]
   (e.g. poisoning a destination) and [check] (the correctness oracle)
   run outside the timed region.  Slices of all classes are interleaved
   round robin in a seeded order, and every slice is bracketed by two
   probe slices: its probe-scaled value is

     (ms per op in the slice) / (mean of the two adjacent probe slices)
       * Probes.ref_ms probe

   and a class reports the median of those over the run, so co-tenant
   memory traffic that slows slice and probe alike cancels out while the
   metric keeps the unit of milliseconds. *)

type metric = { m_name : string; value : float; unit : string }

let metric m_name unit value = { m_name; value; unit }

type cls = {
  name : string;  (** e.g. ["staged.b2c4"] *)
  group : string;  (** per-path / per-phase roll-up, e.g. ["staged"] *)
  reps : int;  (** op calls per slice *)
  units : int;  (** user-visible ops one call performs (serve: requests) *)
  prepare : unit -> unit;
  op : unit -> unit;
  check : unit -> int;  (** failed units of the call just made *)
  mutable ratios : float list;
  mutable raw : float list;  (** ms per op, one per slice *)
  mutable attempted : int;
  mutable failed : int;
}

let cls ?(prepare = ignore) ?(check = fun () -> 0) ?(units = 1) ~group ~reps
    name op =
  {
    name;
    group;
    reps;
    units;
    prepare;
    op;
    check;
    ratios = [];
    raw = [];
    attempted = 0;
    failed = 0;
  }

(* Run one slice; returns milliseconds per unit.  A call that raises
   counts all its units as failed (the slice still completes). *)
let run_slice c =
  let acc = ref 0.0 in
  for _ = 1 to c.reps do
    c.prepare ();
    let t0 = Clock.now () in
    let ok = try c.op (); true with _ -> false in
    acc := !acc +. (Clock.now () -. t0);
    c.attempted <- c.attempted + c.units;
    let bad = if ok then (try c.check () with _ -> c.units) else c.units in
    c.failed <- c.failed + min c.units bad
  done;
  !acc *. 1e3 /. float_of_int (c.reps * c.units)

(* Fisher-Yates over a list, drawing from [rng]. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Cold set-up samples, each bracketed by slices of the probe [s_probe]. *)
type setup = {
  run_setup : unit -> unit;
  s_probe : Probes.kind;
  mutable s_ratios : float list;
  mutable s_raw : float list;  (** seconds *)
}

let setup_sample s =
  let p0 = Probes.slice s.s_probe in
  let (), t = Clock.time s.run_setup in
  let p1 = Probes.slice s.s_probe in
  s.s_raw <- t :: s.s_raw;
  s.s_ratios <- (t *. 1e3 /. ((p0 +. p1) /. 2.0)) :: s.s_ratios

(* Set-up seconds, probe-scaled: median ratio times the probe reference. *)
let setup_s s = Stats.median s.s_ratios *. Probes.ref_ms s.s_probe /. 1e3

(* Interleave slices of [classes] round robin, in an order drawn from
   [rng] each round, until [seconds] have passed (the round in flight
   completes).  [setup] samples are spread evenly: sample k is due
   [k * seconds / nsetup] into the run.  Returns the raw probe slices. *)
let measure ~rng ~probe ~seconds ?setup ?(nsetup = 0) classes =
  let start = Clock.now () in
  let deadline = start +. seconds in
  let taken = ref 0 in
  let setup_due () =
    match setup with
    | Some s
      when !taken < nsetup
           && Clock.now ()
              >= start +. (float_of_int !taken *. seconds /. float_of_int nsetup)
      ->
      setup_sample s;
      incr taken
    | Some _ | None -> ()
  in
  let probes = ref [] in
  let prev = ref (Probes.slice probe) in
  probes := [ !prev ];
  let rounds = ref 0 in
  while Clock.now () < deadline || !rounds = 0 do
    List.iter
      (fun c ->
        setup_due ();
        let ms = run_slice c in
        let p = Probes.slice probe in
        probes := p :: !probes;
        c.raw <- ms :: c.raw;
        c.ratios <- (ms /. ((!prev +. p) /. 2.0)) :: c.ratios;
        prev := p)
      (shuffle rng classes);
    incr rounds
  done;
  (* a short run still takes every set-up sample it promised *)
  (match setup with
  | Some s ->
    while !taken < nsetup do
      setup_sample s;
      incr taken
    done
  | None -> ());
  !probes

(* Probe-scaled milliseconds per op of one class. *)
let scaled probe c = Stats.median c.ratios *. Probes.ref_ms probe

let raw c = Stats.median c.raw

(* Geometric mean of the probe-scaled values of [classes]. *)
let scaled_geomean probe classes = Stats.geomean (List.map (scaled probe) classes)

let groups classes =
  List.sort_uniq compare (List.map (fun c -> c.group) classes)

let in_group g classes = List.filter (fun c -> c.group = g) classes

let attempted classes = List.fold_left (fun a c -> a + c.attempted) 0 classes
let failed classes = List.fold_left (fun a c -> a + c.failed) 0 classes

(* A workload as the driver sees it: its classes, the probe that scales
   them, one cold set-up (built and discarded, for [setup_s]) with the
   probe that scales it and how many to sample per run, the
   per-layer metrics gathered after a traced pass, and a finalizer that
   stops any pool or service it started. *)
type workload = {
  probe : Probes.kind;
  classes : cls list;
  cold_setup : unit -> unit;
  setup_probe : Probes.kind;
  nsetup : int;  (** cold set-ups per untraced run *)
  layers : unit -> metric list;
  close : unit -> unit;
}

(* --- result line ---------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The benchmark's last output line: correct when no op failed.  A
   non-finite metric makes the run incorrect rather than printing
   invalid JSON. *)
let result_line ~attempted ~failed metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        Printf.eprintf "perfbench: metric %s is not finite\n%!" m.m_name)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.m_name
             (json_number (if Float.is_finite m.value then m.value else 0.0))
             m.unit)
         metrics)
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (finite && failed = 0)
    (max 1 attempted) failed body
