(* The registry of workloads and of the metric names the benchmark
   emits, and the two kinds of run: untraced (end-to-end metrics) and
   traced (per-layer metrics). *)

type spec = {
  name : string;
  make : seed:int -> Harness.workload;
  raw_prefix : string;  (** per-class raw metric: prefix ^ class ^ "_ms" *)
}

let all =
  let spec name raw_prefix make = { name; make; raw_prefix } in
  [
    spec "kernels" "" (fun ~seed:_ -> Wl_kernels.make ());
    spec "remap" "comm." (fun ~seed:_ -> Wl_remap.make_remap ());
    spec "remap-par" "par." (fun ~seed:_ -> Wl_remap.make_par ());
    spec "serve" "serve." (fun ~seed -> Wl_serve.make ~seed ());
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let rng ~seed spec = Random.State.make [| seed; Hashtbl.hash spec.name |]

type outcome = {
  metrics : Harness.metric list;
  attempted : int;
  failed : int;
}

(* Human-readable per-class table, printed ahead of the result line. *)
let print_classes (w : Harness.workload) =
  List.iter
    (fun (c : Harness.cls) ->
      Printf.printf
        "%-20s slices %5d  raw %10.4f ms  scaled %10.4f ms  failed %d/%d\n"
        c.name (List.length c.raw) (Harness.raw c) (Harness.scaled w.probe c)
        c.failed c.attempted)
    w.classes

let op_ms (w : Harness.workload) = Harness.scaled_geomean w.probe w.classes

(* End-to-end run: [op_ms] (probe-scaled geometric mean over the
   workload's classes), [setup_s] (probe-scaled median of cold set-ups
   spread through the run) and [ok_frac].  Peak RSS is added by the
   launcher, which sees the whole process. *)
let untraced ~seed ~seconds spec =
  Adapter.set Adapter.defaults;
  let w = spec.make ~seed in
  let setup =
    {
      Harness.run_setup = w.cold_setup;
      s_probe = w.setup_probe;
      s_ratios = [];
      s_raw = [];
    }
  in
  Fun.protect ~finally:w.close (fun () ->
      let probes =
        Harness.measure ~rng:(rng ~seed spec) ~probe:w.probe ~seconds ~setup
          ~nsetup:w.nsetup w.classes
      in
      print_classes w;
      Printf.printf "probe_raw_ms %.6f\nop_raw_ms %.6f\nsetup_raw_s %.6f\n"
        (Stats.median probes)
        (Stats.geomean (List.map Harness.raw w.classes))
        (Stats.median setup.Harness.s_raw);
      let attempted = Harness.attempted w.classes
      and failed = Harness.failed w.classes in
      let ok = 1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)) in
      {
        metrics =
          Harness.
            [
              metric "op_ms" "ms" (op_ms w);
              metric "setup_s" "s" (Harness.setup_s setup);
              metric "ok_frac" "ratio" ok;
            ];
        attempted;
        failed;
      })

(* Per-class and per-group metrics of a traced pass: probe-scaled group
   geometric means (compile_ms, canon_ms, ...) next to the raw median
   milliseconds of every class. *)
let class_metrics spec (w : Harness.workload) =
  List.map
    (fun g ->
      Harness.metric (g ^ "_ms") "ms"
        (Harness.scaled_geomean w.probe (Harness.in_group g w.classes)))
    (Harness.groups w.classes)
  @ List.map
      (fun (c : Harness.cls) ->
        Harness.metric (spec.raw_prefix ^ c.name ^ "_ms") "ms" (Harness.raw c))
      w.classes

let probe_metrics () =
  List.map
    (fun k ->
      let xs = List.init 16 (fun _ -> Probes.slice k) in
      Harness.metric ("probe." ^ Probes.name k ^ "_ms") "ms" (Stats.median xs))
    Probes.all

(* Traced run: the selected workload once untraced and once traced for
   the tracing overhead, then a traced pass of every workload, so that
   every layer's metrics come out of every traced run.  Each pass gets a
   fifth of [seconds]. *)
let traced ~seed ~seconds spec =
  Adapter.set Adapter.defaults;
  let share = seconds /. 5.0 in
  let pass ~traced spec =
    Span.reset ();
    Span.enabled := traced;
    let w = spec.make ~seed in
    Fun.protect
      ~finally:(fun () ->
        w.close ();
        Span.enabled := false)
      (fun () ->
        ignore
          (Harness.measure ~rng:(rng ~seed spec) ~probe:w.probe ~seconds:share
             w.classes
            : float list);
        let layers = if traced then w.layers () @ class_metrics spec w else [] in
        (op_ms w, layers, Harness.attempted w.classes, Harness.failed w.classes))
  in
  let base, _, a0, f0 = pass ~traced:false spec in
  let results = List.map (fun s -> (s, pass ~traced:true s)) all in
  let traced_op, _, _, _ = List.assoc spec results in
  let attempted = List.fold_left (fun a (_, (_, _, x, _)) -> a + x) a0 results
  and failed = List.fold_left (fun a (_, (_, _, _, x)) -> a + x) f0 results in
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  {
    metrics =
      List.concat_map (fun (_, (_, l, _, _)) -> l) results
      @ probe_metrics ()
      @ Harness.
          [
            metric "trace.overhead_pct" "%" ((traced_op -. base) /. base *. 100.0);
            metric "failed_frac" "ratio" failed_frac;
          ];
    attempted;
    failed;
  }
