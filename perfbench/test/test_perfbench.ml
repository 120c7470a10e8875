(* Tests of the benchmark itself: seeded inputs reproduce exactly, the
   emitted metric names are the ones BENCHMARK.json declares, and the
   path adapter's counter assertions accept the intended path and reject
   the others. *)

open Perfbench
module Comm = Hpfc_runtime.Comm
module Machine = Hpfc_runtime.Machine
module Par = Hpfc_par.Par

(* --- seeds ------------------------------------------------------------- *)

let orders seed =
  let spec = Option.get (Workloads.find "remap") in
  let rng = Workloads.rng ~seed spec in
  List.init 50 (fun _ -> Harness.shuffle rng (List.init 15 Fun.id))

let test_orders () =
  Alcotest.(check bool) "same seed, same op order" true (orders 3 = orders 3);
  Alcotest.(check bool) "another seed, another op order" false (orders 3 = orders 4)

let serve_counts seed =
  let w = Wl_serve.make ~seed () in
  Fun.protect ~finally:w.Harness.close (fun () ->
      List.filter_map
        (fun (m : Harness.metric) ->
          if List.mem m.m_name [ "plan.hit_ratio"; "plan.misses"; "plan.evictions" ]
          then Some (m.m_name, m.value)
          else None)
        (w.Harness.layers ()))

let test_serve_counts () =
  let a = serve_counts 11 and b = serve_counts 11 in
  Alcotest.(check int) "three plan counters" 3 (List.length a);
  Alcotest.(check bool) "plan hit/miss/eviction counts repeat" true (a = b)

(* --- names -------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Every "name" value of the JSON array under [key] (BENCHMARK.json keeps
   one metric object per array entry, so the array ends at the first
   ']' after the key). *)
let names_under key =
  let s =
    read_file
      (List.find Sys.file_exists [ "../../BENCHMARK.json"; "BENCHMARK.json" ])
  in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = Option.get (find_from 0 (Printf.sprintf "%S" key)) in
  let stop = Option.get (find_from start "]") in
  let rec collect i acc =
    match find_from i {|"name": "|} with
    | Some j when j < stop ->
      let k = j + 9 in
      let e = String.index_from s k '"' in
      collect e (String.sub s k (e - k) :: acc)
    | Some _ | None -> List.rev acc
  in
  collect start []

let emitted (o : Workloads.outcome) =
  List.map (fun (m : Harness.metric) -> m.m_name) o.metrics

let sorted = List.sort compare

let test_end_to_end_names () =
  let o =
    Workloads.untraced ~seed:1 ~seconds:0.2 (Option.get (Workloads.find "serve"))
  in
  Alcotest.(check (list string))
    "end-to-end names (peak_rss_mb comes from the launcher)"
    (sorted (names_under "end_to_end"))
    (sorted ("peak_rss_mb" :: emitted o));
  Alcotest.(check int) "no failed op" 0 o.failed

let test_per_layer_names () =
  let o =
    Workloads.traced ~seed:1 ~seconds:0.5 (Option.get (Workloads.find "kernels"))
  in
  Alcotest.(check (list string))
    "per-layer names" (sorted (names_under "per_layer")) (sorted (emitted o));
  Alcotest.(check int) "no failed op" 0 o.failed

let test_workload_names () =
  Alcotest.(check (list string))
    "workloads"
    (names_under "workloads")
    (List.map (fun (s : Workloads.spec) -> s.name) Workloads.all)

(* --- adapter ------------------------------------------------------------ *)

let small =
  {
    Wl_remap.pname = "small";
    nprocs = 4;
    extents = [| 1000 |];
    src_dist = [| Hpfc_mapping.Dist.block |];
    dst_dist = [| Hpfc_mapping.Dist.cyclic |];
  }

(* Run one remap of the small pair on [path]; report which paths the
   counters were consistent with. *)
let accepted ?pool path =
  let ls = Wl_remap.(layout small small.src_dist, layout small small.dst_dist) in
  let plans = Hpfc_runtime.Redist.Plan_cache.create ~capacity:4 () in
  let i = Wl_remap.make_inst ?pool ~plans path small ls in
  let before = Machine.snapshot_counters i.machine in
  i.remap ();
  Alcotest.(check int) "data intact" 0
    (Wl_remap.diff ~expected:i.expected ~got:i.dst);
  List.filter
    (fun p ->
      Adapter.verify p ~before ~after:i.machine.Machine.counters ~plan:i.plan
        ~remaps:1)
    Adapter.[ Canon; Staged; Coll; Stepped; Async ]

let paths = Alcotest.testable (Fmt.of_to_string (fun ps ->
    String.concat "," (List.map Adapter.name ps))) ( = )

let test_adapter () =
  Alcotest.check paths "canonical" [ Adapter.Canon ] (accepted Adapter.Canon);
  Alcotest.check paths "staged"
    Adapter.[ Staged; Stepped ]
    (accepted Adapter.Staged);
  Alcotest.check paths "collective" [ Adapter.Coll ] (accepted Adapter.Coll);
  let pool = Par.create ~ndomains:2 () in
  Fun.protect ~finally:(fun () -> Par.destroy pool) (fun () ->
      Alcotest.check paths "stepped"
        Adapter.[ Staged; Stepped ]
        (accepted ~pool Adapter.Stepped);
      Alcotest.check paths "async" [ Adapter.Async ] (accepted ~pool Adapter.Async))

let test_restore () =
  let saved = Adapter.current () in
  (try
     Adapter.with_path Adapter.Async (fun () ->
         Alcotest.(check bool) "async set" true !Comm.force_async;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "switches restored after a raise" true
    (Adapter.current () = saved)

let () =
  Alcotest.run "perfbench"
    [
      ( "seed",
        [
          Alcotest.test_case "op order" `Quick test_orders;
          Alcotest.test_case "serve plan counts" `Quick test_serve_counts;
        ] );
      ( "names",
        [
          Alcotest.test_case "workloads" `Quick test_workload_names;
          Alcotest.test_case "end to end" `Quick test_end_to_end_names;
          Alcotest.test_case "per layer" `Slow test_per_layer_names;
        ] );
      ( "adapter",
        [
          Alcotest.test_case "assertions" `Quick test_adapter;
          Alcotest.test_case "restore" `Quick test_restore;
        ] );
    ]
