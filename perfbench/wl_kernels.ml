(* The kernels workload: the paper's applications through the whole
   compiler and the interpreter, closed loop, one program at a time.

   Classes: compile (parse + the [Pipeline.analyze] pass sequence) of
   ADI, 2-D FFT (2 sweeps) and SAR at n=64, P=4, and of the Fig. 4
   k-calls program at k=256; run ([Interp.run] of the compiled program
   with the [hpfc run] defaults, i.e. [Pipeline.run_source] minus its
   parse and compile) of ADI, FFT and SAR.  Every run is checked against
   a direct OCaml evaluation of the loop nests ([Kernels_ref]); every
   compile against the compile report of the first, set-up compile.
   Yardstick: the [Alloc] probe. *)

module I = Hpfc_interp.Interp
module Apps = Hpfc_kernels.Apps
module Comm = Hpfc_runtime.Comm
module Machine = Hpfc_runtime.Machine
module Graph = Hpfc_remap.Graph
module Ast = Hpfc_lang.Ast

let n = 64

type prog = {
  pname : string;
  src : string;
  scalars : (string * I.value) list;
  expected : (string * float array) list option;  (** None: compile only *)
}

let programs () =
  [
    {
      pname = "adi";
      src = Apps.adi_src ~n ();
      scalars = [ ("t", I.VInt 2) ];
      expected = Some (Kernels_ref.adi ~n ~t:2);
    };
    {
      pname = "fft";
      src = Apps.fft2d_src ~sweeps:2 ~n ();
      scalars = [];
      expected = Some (Kernels_ref.fft2d ~n ~sweeps:2);
    };
    {
      pname = "sar";
      src = Apps.sar_src ~n;
      scalars = [ ("t", I.VInt 1) ];
      expected = Some (Kernels_ref.sar ~n ~t:1);
    };
    {
      pname = "calls";
      src = Apps.calls_src ~n ~k:256;
      scalars = [];
      expected = None;
    };
  ]

(* What a compile reports, summed over the program's routines. *)
type report = {
  vertices : int;
  edges : int;
  hoisted : int;
  removed : int;
  remaps_after : int;
}

let zero = { vertices = 0; edges = 0; hoisted = 0; removed = 0; remaps_after = 0 }

(* [Pipeline.analyze]'s pass sequence over every routine, one span per
   layer call: parser, opt (hoisting, useless-remapping removal), remap
   (G_R construction), codegen. *)
let compile src =
  Span.with_span "compile" (fun () ->
      let pl = I.full_pipeline in
      let nprocs = pl.I.default_nprocs in
      let prog =
        Span.with_span "parser" (fun () -> Hpfc_parser.Parser.parse_program src)
      in
      let compiled = Hashtbl.create 8 in
      let report =
        List.fold_left
          (fun acc (r : Ast.routine) ->
            let r', hoisted =
              Span.with_span "opt" (fun () ->
                  Hpfc_opt.Hoist.run ~default_nprocs:nprocs r)
            in
            let g =
              Span.with_span "remap" (fun () ->
                  Hpfc_remap.Construct.build ~default_nprocs:nprocs r')
            in
            let s, after =
              Span.with_span "opt" (fun () ->
                  let s = Hpfc_opt.Remove_useless.run g in
                  (s, Hpfc_driver.Pipeline.count_remappings g))
            in
            let code =
              Span.with_span "codegen" (fun () ->
                  Hpfc_codegen.Gen.generate ~options:pl.I.codegen g)
            in
            Hashtbl.replace compiled r.Ast.r_name code;
            {
              vertices = acc.vertices + Graph.nb_vertices g;
              edges = acc.edges + Graph.nb_edges g;
              hoisted = acc.hoisted + hoisted;
              removed = acc.removed + s.Hpfc_opt.Remove_useless.removed;
              remaps_after = acc.remaps_after + after;
            })
          zero prog.Ast.routines
      in
      let entry = (List.hd prog.Ast.routines).Ast.r_name in
      ({ I.compiled; share_live_args = pl.I.share_live_args }, entry, report))

(* The communication executor of a run, wrapped in a span when tracing so
   the interpreter's self time excludes the runtime's. *)
let executor () : Comm.executor =
  if !Span.enabled then fun m ~src ~dst plan ->
    Span.with_span "comm" (fun () -> Comm.execute m ~src ~dst plan)
  else Comm.execute

let run p (compiled, entry, _) =
  let executor = executor () in
  Span.with_span "interp" (fun () ->
      I.run ~executor ~scalars:p.scalars compiled ~entry ())

let make () =
  let progs = programs () in
  let built = List.map (fun p -> (p, compile p.src)) progs in
  let compile_class (p, (_, _, report0)) =
    let last = ref zero in
    Harness.cls ~group:"compile"
      ~reps:(if p.pname = "calls" then 1 else 4)
      ~check:(fun () -> if !last = report0 then 0 else 1)
      ("compile." ^ p.pname)
      (fun () ->
        let _, _, r = compile p.src in
        last := r)
  in
  let remaps = Hashtbl.create 4 in
  let run_class (p, c) =
    let expected = Option.get p.expected in
    let last = ref None in
    Harness.cls ~group:"run" ~reps:1
      ~check:(fun () ->
        match !last with
        | Some (r : I.result) ->
          Hashtbl.replace remaps p.pname
            r.I.machine.Machine.counters.Machine.remaps_performed;
          min 1 (Kernels_ref.mismatches ~expected ~got:r.I.final_arrays)
        | None -> 1)
      ("run." ^ p.pname)
      (fun () -> last := Some (run p c))
  in
  let classes =
    List.map compile_class built
    @ List.map run_class (List.filter (fun (p, _) -> p.expected <> None) built)
  in
  let cold_setup () =
    List.iter
      (fun p ->
        let c = compile p.src in
        if p.expected <> None then ignore (run p c : I.result))
      progs
  in
  let layers () =
    let tbl = Span.self_times () in
    let per_compile name =
      Span.total_ms tbl name /. float_of_int (max 1 (Span.calls tbl "compile"))
    in
    let sum f = List.fold_left (fun a (_, (_, _, r)) -> a + f r) 0 built in
    let fi x = float_of_int x in
    (* remaps of one run of each program *)
    let run_remaps = fi (Hashtbl.fold (fun _ k a -> a + k) remaps 0) in
    Harness.
      [
        metric "parser.ms" "ms" (per_compile "parser");
        metric "remap.build_ms" "ms" (per_compile "remap");
        metric "remap.gr_vertices" "count" (fi (sum (fun r -> r.vertices)));
        metric "remap.gr_edges" "count" (fi (sum (fun r -> r.edges)));
        metric "opt.ms" "ms" (per_compile "opt");
        metric "opt.removed" "count" (fi (sum (fun r -> r.removed)));
        metric "opt.hoisted" "count" (fi (sum (fun r -> r.hoisted)));
        metric "opt.remaps_after" "count" (fi (sum (fun r -> r.remaps_after)));
        metric "codegen.ms" "ms" (per_compile "codegen");
        metric "interp.self_ms" "ms"
          (Span.total_ms tbl "interp"
          /. float_of_int (max 1 (Span.calls tbl "interp")));
        metric "interp.remaps" "count" run_remaps;
      ]
  in
  {
    Harness.probe = Probes.Alloc;
    classes;
    cold_setup;
    setup_probe = Probes.Alloc;
    nsetup = 16;
    layers;
    close = ignore;
  }
