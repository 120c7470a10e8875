(* perfbench driver:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (kernels, remap, remap-par, serve) for about S
   seconds with inputs drawn from seed N, checks every op, and prints one
   JSON result line last: end-to-end metrics with --trace 0, per-layer
   metrics with --trace 1.  The launcher perfbench/run.py builds this
   executable and adds the process's peak RSS. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload kernels|remap|remap-par|serve --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let spec =
    match Perfbench.Workloads.find (get "workload") with
    | Some s -> s
    | None -> usage ()
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let o =
    if traced then Perfbench.Workloads.traced ~seed ~seconds spec
    else Perfbench.Workloads.untraced ~seed ~seconds spec
  in
  List.iter
    (fun (m : Perfbench.Harness.metric) ->
      Printf.printf "%-32s %14.6g %s\n" m.m_name m.value m.unit)
    o.metrics;
  print_endline
    (Perfbench.Harness.result_line ~attempted:o.attempted ~failed:o.failed
       o.metrics)
