(* Properties of box-to-run compilation and the blit pack/unpack path:
   the compiled runs of every message must enumerate exactly the
   (source address, destination address) pairs the per-element walk
   produces, in the same row-major box order, under all four addressing
   combinations (global row-major / owner-local on either side); and an
   end-to-end remap must move bit-identical data whether the executor
   copies direct zero-copy runs, blits through staged pack/unpack, or
   routes every element through the scalar closures, on both store
   backends and under both the sequential and the domain-parallel
   executor.  Modeled counters never distinguish the paths; only
   [run_blits]/[zero_copy_runs]/[staged_bytes] and the staging-pool
   totals do. *)

open Hpfc_mapping
open Hpfc_runtime

let procs n = Procs.linear "P" n

let layout_nd ~extents dists p =
  Layout.of_mapping ~extents
    (Mapping.direct ~array_name:"a" ~extents ~dist:dists ~procs:(procs p))

(* Run [f] with the data path forced (scalar oracle, staged blits, or —
   both false — the zero-copy default), restoring the ambient switches
   afterwards (the suite must pass under HPFC_FORCE_SCALAR and
   HPFC_FORCE_STAGED too). *)
let with_path ?(staged = false) ~scalar f =
  let saved_scalar = !Comm.force_scalar and saved_staged = !Comm.force_staged in
  Comm.force_scalar := scalar;
  Comm.force_staged := staged;
  Fun.protect
    ~finally:(fun () ->
      Comm.force_scalar := saved_scalar;
      Comm.force_staged := saved_staged)
    f

(* --- (a) run decomposition is exact ------------------------------------------- *)

(* The flat address of [index] on the side described by [addressing],
   for the rank the message touches on that side.  Owner-local
   addressing is rank-independent here: replicated grid dimensions do
   not change local extents, so every replica stores the element at the
   canonical owner's local linear index. *)
let oracle_address addressing extents index =
  match addressing with
  | Redist.Row_major _ -> Layout.global_linear_index extents index
  | Redist.Owner_local l -> Layout.local_linear_index l index

(* Expand a run array into the (src, dst) address pairs it copies, in
   copy order. *)
let expand_runs runs =
  List.concat_map
    (fun (r : Redist.run) ->
      List.concat_map
        (fun i ->
          List.map
            (fun j ->
              ( r.Redist.r_src + (i * r.Redist.r_src_stride) + j,
                r.Redist.r_dst + (i * r.Redist.r_dst_stride) + j ))
            (List.init r.Redist.r_len Fun.id))
        (List.init r.Redist.r_count Fun.id))
    runs

(* All four (source, destination) addressing combinations of a plan. *)
let addressings ~(src : Layout.t) ~(dst : Layout.t) =
  let extents = src.Layout.extents in
  [
    (Redist.Row_major extents, Redist.Row_major extents);
    (Redist.Row_major extents, Redist.Owner_local dst);
    (Redist.Owner_local src, Redist.Row_major extents);
    (Redist.Owner_local src, Redist.Owner_local dst);
  ]

(* Every message of the plan, under every (src, dst) addressing
   combination: compiled runs = per-element walk, pairwise and in
   order. *)
let runs_exact ~(src : Layout.t) ~(dst : Layout.t) =
  let plan = Redist.plan_intervals ~src ~dst in
  let extents = src.Layout.extents in
  List.for_all
    (fun (m : Redist.message) ->
      List.for_all
        (fun (sa, da) ->
          let expected = ref [] in
          Redist.iter_box m.Redist.m_box (fun index ->
              expected :=
                (oracle_address sa extents index, oracle_address da extents index)
                :: !expected);
          let runs = Redist.message_runs ~src:sa ~dst:da m in
          expand_runs (Array.to_list runs) = List.rev !expected
          && Redist.nb_run_segments runs <= m.Redist.m_count
          && Array.fold_left
               (fun acc (r : Redist.run) ->
                 acc + (r.Redist.r_len * r.Redist.r_count))
               0 runs
             = m.Redist.m_count)
        (addressings ~src ~dst))
    (plan.Redist.moves @ plan.Redist.locals)

let prop_runs_exact =
  QCheck2.Test.make
    ~name:"compiled runs = per-element walk under all four addressings"
    ~print:Test_redist_props.print_pair ~count:250 Test_redist_props.gen_pair
    (fun (src, dst) -> runs_exact ~src ~dst)

(* Deterministic corners the 1-D generators cannot reach: extent-1 and
   collapsed dimensions, multi-dimensional boxes, cyclic(1) against
   block-cyclic, a transposed 2-D grid. *)
let test_runs_exact_corners () =
  let check name ~src ~dst =
    Alcotest.(check bool) name true (runs_exact ~src ~dst)
  in
  let grid_2d ~extents dists =
    Layout.of_mapping ~extents
      (Mapping.direct ~array_name:"a" ~extents ~dist:dists
         ~procs:(Procs.make "G" [| 2; 2 |]))
  in
  let e2 = [| 8; 6 |] in
  check "2-D corner turn"
    ~src:(layout_nd ~extents:e2 [| Dist.block; Dist.star |] 4)
    ~dst:(layout_nd ~extents:e2 [| Dist.star; Dist.block |] 4);
  check "2-D block -> cyclic both dims"
    ~src:(grid_2d ~extents:e2 [| Dist.block; Dist.cyclic |])
    ~dst:(grid_2d ~extents:e2 [| Dist.cyclic; Dist.block_sized 3 |]);
  let e1 = [| 1; 7 |] in
  check "extent-1 leading dimension"
    ~src:(grid_2d ~extents:e1 [| Dist.block; Dist.cyclic |])
    ~dst:(grid_2d ~extents:e1 [| Dist.cyclic; Dist.block |]);
  check "cyclic(1) -> cyclic(3)"
    ~src:(layout_nd ~extents:[| 17 |] [| Dist.cyclic |] 4)
    ~dst:(layout_nd ~extents:[| 17 |] [| Dist.cyclic_sized 3 |] 4);
  (* replicated target: every replica rank unpacks at the canonical
     owner's local addresses *)
  let t = Template.make "T" [| 12; 2 |] in
  let repl =
    Layout.of_mapping ~extents:[| 12 |]
      (Mapping.v ~template:t
         ~align:
           [| Align.Axis { array_dim = 0; stride = 1; offset = 0 };
              Align.Replicated
           |]
         ~dist:[| Dist.block; Dist.block |]
         ~procs:(Procs.make "G" [| 2; 2 |]))
  in
  check "block -> replicated"
    ~src:(layout_nd ~extents:[| 12 |] [| Dist.cyclic |] 4)
    ~dst:repl

(* --- (b) zero-copy == staged == scalar, end to end ------------------------------ *)

(* Final values and modeled counters of one remap, on a given backend
   and executor, with the data path forced. *)
let observe ?(staged = false) ~scalar ~backend ?executor (src, dst) =
  with_path ~staged ~scalar (fun () ->
      let m, _, d = Test_comm.remap ~backend ?executor ~src ~dst float_of_int in
      let c =
        {
          m.Machine.counters with
          (* the only counters allowed to differ between the paths *)
          Machine.run_blits = 0;
          Machine.zero_copy_runs = 0;
          Machine.staged_bytes = 0;
          Machine.peak_bytes = 0;
          Machine.pool_hits = 0;
          Machine.pool_misses = 0;
          Machine.pool_lease_peak = 0;
          Machine.wall_time = 0.0;
          Machine.async_completions = 0;
        }
      in
      (Store.to_global (Store.get_copy d 1), c))

(* The three datapaths, as (scalar, staged) switch pairs. *)
let paths = [ (false, false); (false, true); (true, false) ]

let all_paths_agree ?executor ~backend (src, dst) =
  match
    List.map
      (fun (scalar, staged) ->
        observe ~scalar ~staged ~backend ?executor (src, dst))
      paths
  with
  | ref_obs :: rest -> List.for_all (fun o -> o = ref_obs) rest
  | [] -> assert false

let prop_paths_equal =
  QCheck2.Test.make
    ~name:"zero-copy = staged = scalar (values and modeled counters)"
    ~print:Test_redist_props.print_pair ~count:80 Test_redist_props.gen_pair
    (fun (src, dst) ->
      List.for_all
        (fun backend -> all_paths_agree ~backend (src, dst))
        [ Store.Canonical; Store.Distributed ])

let prop_paths_equal_par =
  QCheck2.Test.make
    ~name:"parallel zero-copy = parallel staged = parallel scalar"
    ~print:Test_redist_props.print_pair ~count:40 Test_comm.gen_irregular_pair
    (fun (src, dst) ->
      all_paths_agree ~backend:Store.Distributed
        ~executor:(Test_par.par_executor ()) (src, dst))

(* Self-message-rich remaps: identity layout pairs are all locals, so
   the zero-copy path touches no staging buffer at all — and must still
   agree with the staged and scalar paths element-wise. *)
let print_layout l = Fmt.str "%a" Layout.pp l

let prop_paths_equal_identity =
  QCheck2.Test.make
    ~name:"identity remaps: three paths agree, zero-copy stages nothing"
    ~print:print_layout ~count:60
    (Test_redist_props.gen_side ~n:48)
    (fun l ->
      List.for_all
        (fun backend ->
          all_paths_agree ~backend (l, l)
          &&
          let m, _, _ =
            with_path ~scalar:false (fun () ->
                Test_comm.remap ~backend ~src:l ~dst:l float_of_int)
          in
          let c = m.Machine.counters in
          (* a replicated layout broadcasts even onto itself: only the
             cross-rank moves may stage, and a move-free identity remap
             must touch no staging buffer at all *)
          (backend = Store.Distributed || c.Machine.staged_bytes = 0)
          && (c.Machine.messages > 0
             || c.Machine.staged_bytes = 0
                && c.Machine.run_blits = 0
                && c.Machine.pool_hits + c.Machine.pool_misses = 0)
          && (c.Machine.local_moves = 0 || c.Machine.zero_copy_runs > 0))
        [ Store.Canonical; Store.Distributed ])

(* Deterministic self-message-heavy corners: a transpose remap on one
   rank (everything is a self-message) and block -> block over nested
   grids (shared owners keep most elements local). *)
let test_paths_self_message_corners () =
  let check name pair =
    List.iter
      (fun backend ->
        Alcotest.(check bool) name true (all_paths_agree ~backend pair))
      [ Store.Canonical; Store.Distributed ]
  in
  let e2 = [| 6; 8 |] in
  check "transpose on 1 rank"
    ( layout_nd ~extents:e2 [| Dist.block; Dist.star |] 1,
      layout_nd ~extents:e2 [| Dist.star; Dist.block |] 1 );
  check "block -> block with shared owners"
    ( layout_nd ~extents:[| 64 |] [| Dist.block |] 4,
      layout_nd ~extents:[| 64 |] [| Dist.block_sized 16 |] 4 );
  check "block p4 -> block p2 shared owners"
    ( layout_nd ~extents:[| 64 |] [| Dist.block |] 4,
      layout_nd ~extents:[| 64 |] [| Dist.block |] 2 )

(* Datapath accounting, charged from the memoized runs and decisions.
   Under the forced-staged path, PR 4's formula: locals copy once,
   moves pack and unpack.  Under the zero-copy default, locals and
   Direct-eligible moves charge zero_copy_runs, the rest blit twice and
   stage their bytes. *)
let prop_run_blits_charged =
  QCheck2.Test.make
    ~name:"forced staged: run_blits = local segments + 2 * move segments"
    ~print:Test_redist_props.print_pair ~count:60 Test_redist_props.gen_pair
    (fun (src, dst) ->
      with_path ~scalar:false ~staged:true (fun () ->
          let m, s, d = Test_comm.remap ~src ~dst float_of_int in
          let plan = Store.plan_for s d ~src:0 ~dst:1 in
          let extents = src.Layout.extents in
          let segs (msg : Redist.message) =
            Redist.nb_run_segments
              (Redist.message_runs ~src:(Redist.Row_major extents)
                 ~dst:(Redist.Row_major extents) msg)
          in
          let expected =
            List.fold_left (fun a msg -> a + segs msg) 0 plan.Redist.locals
            + List.fold_left
                (fun a msg -> a + (2 * segs msg))
                0 plan.Redist.moves
          in
          let c = m.Machine.counters in
          c.Machine.run_blits = expected
          && c.Machine.zero_copy_runs = 0
          && c.Machine.staged_bytes = 8 * c.Machine.volume))

let prop_zero_copy_charged =
  QCheck2.Test.make
    ~name:"zero-copy accounting on both backends"
    ~print:Test_redist_props.print_pair ~count:60 Test_redist_props.gen_pair
    (fun (src, dst) ->
      with_path ~scalar:false (fun () ->
          let extents = src.Layout.extents in
          (* canonical: both sides Row_major, every message is Direct *)
          let m, s, d =
            Test_comm.remap ~backend:Store.Canonical ~src ~dst float_of_int
          in
          let plan = Store.plan_for s d ~src:0 ~dst:1 in
          let segs addressing =
            let a_src, a_dst = addressing in
            fun (msg : Redist.message) ->
              Redist.nb_run_segments
                (Redist.message_runs ~src:a_src ~dst:a_dst msg)
          in
          let sum f msgs = List.fold_left (fun a msg -> a + f msg) 0 msgs in
          let rm = (Redist.Row_major extents, Redist.Row_major extents) in
          let c = m.Machine.counters in
          let canonical_ok =
            c.Machine.run_blits = 0
            && c.Machine.staged_bytes = 0
            && c.Machine.zero_copy_runs
               = sum (segs rm) plan.Redist.locals + sum (segs rm) plan.Redist.moves
          in
          (* distributed: per-rank buffers, only self-messages are Direct
             and those are exactly the plan's locals *)
          let m', s', d' =
            Test_comm.remap ~backend:Store.Distributed ~src ~dst float_of_int
          in
          let plan' = Store.plan_for s' d' ~src:0 ~dst:1 in
          let ol = (Redist.Owner_local src, Redist.Owner_local dst) in
          let c' = m'.Machine.counters in
          let distributed_ok =
            c'.Machine.zero_copy_runs = sum (segs ol) plan'.Redist.locals
            && c'.Machine.run_blits = 2 * sum (segs ol) plan'.Redist.moves
            && c'.Machine.staged_bytes = 8 * c'.Machine.volume
          in
          canonical_ok && distributed_ok))

(* --- (c) the staging-buffer pool ------------------------------------------------ *)

let test_pool_unit () =
  let p = Comm.Pool.create () in
  let hit, b1 = Comm.Pool.acquire p 100 in
  Alcotest.(check bool) "fresh pool misses" false hit;
  Alcotest.(check bool) "power-of-two class" true (Buf.length b1 = 128);
  Alcotest.(check (float 0.0)) "fresh buffers read as zero" 0.0 (Buf.get b1 0);
  Comm.Pool.release p b1;
  let hit, b2 = Comm.Pool.acquire p 65 in
  Alcotest.(check bool) "same class hits" true hit;
  Alcotest.(check bool) "the very same buffer" true (b1 == b2);
  let hit, b3 = Comm.Pool.acquire p 100 in
  Alcotest.(check bool) "class emptied" false hit;
  Comm.Pool.release p b2;
  Comm.Pool.release p b3;
  let hit, _ = Comm.Pool.acquire p 1 in
  Alcotest.(check bool) "distinct class misses" false hit;
  Alcotest.(check int) "hits counted" 1 (Comm.Pool.hits p);
  Alcotest.(check int) "misses counted" 3 (Comm.Pool.misses p)

(* Steady state: the sequential executor releases each staging buffer
   before acquiring the next, so a warmed-up pool serves every staged
   message of a repeated remap without allocating.  Forced staged so
   the distributed cross-rank messages actually stage (they do anyway)
   and the counts stay exact under any ambient switches. *)
let test_pool_steady_state () =
  with_path ~scalar:false ~staged:true (fun () ->
      let src = layout_nd ~extents:[| 64 |] [| Dist.block |] 4
      and dst = layout_nd ~extents:[| 64 |] [| Dist.cyclic |] 4 in
      (* p2p-pinned so hits count messages, not collective slices *)
      let (_ : Machine.t * Store.t * Store.descriptor) =
        Test_comm.remap ~lower:Comm.Lower_p2p ~src ~dst float_of_int
      in
      let m, _, _ =
        Test_comm.remap ~lower:Comm.Lower_p2p ~src ~dst float_of_int
      in
      let c = m.Machine.counters in
      Alcotest.(check bool) "plan has messages" true (c.Machine.messages > 0);
      Alcotest.(check int) "warm pool never allocates" 0 c.Machine.pool_misses;
      Alcotest.(check int) "every message a pool hit" c.Machine.messages
        c.Machine.pool_hits)

(* Zero-copy steady state: on the canonical backend every message is
   Direct, so a remap touches the pool not at all — no staging
   allocations even from cold — and charges zero_copy_runs instead. *)
let test_zero_copy_steady_state () =
  with_path ~scalar:false (fun () ->
      let src = layout_nd ~extents:[| 64 |] [| Dist.block |] 4
      and dst = layout_nd ~extents:[| 64 |] [| Dist.cyclic |] 4 in
      let m, _, _ =
        Test_comm.remap ~backend:Store.Canonical ~src ~dst float_of_int
      in
      let c = m.Machine.counters in
      Alcotest.(check bool) "plan has messages" true (c.Machine.messages > 0);
      Alcotest.(check int) "no staging buffers acquired" 0
        (c.Machine.pool_hits + c.Machine.pool_misses);
      Alcotest.(check int) "nothing staged" 0 c.Machine.staged_bytes;
      Alcotest.(check int) "no staged blits" 0 c.Machine.run_blits;
      Alcotest.(check bool) "direct copies charged" true
        (c.Machine.zero_copy_runs > 0))

(* --- (d) overlap safety of the direct path -------------------------------------- *)

(* An in-place remap exposes one payload wrapper to both endpoints of a
   self-message; the direct path must then copy with memmove semantics.
   The cyclic owned set of rank 1 compiles to a single strided run whose
   source and destination regions overlap on the shared buffer: the
   gather direction (global row-major -> owner-local) is only correct
   iterating forward, the scatter direction only iterating backward, so
   both directions regression-test the overtaking check.  (The staged
   path masks this class of bug — packing reads everything before any
   write — which is exactly why the direct path needs its own test.) *)
let test_direct_overlap_inplace () =
  with_path ~scalar:false (fun () ->
      let n = 16 in
      let l = layout_nd ~extents:[| n |] [| Dist.cyclic |] 2 in
      let endpoint buf addressing =
        {
          Comm.read = (fun ~rank:_ index -> Buf.get buf index.(0));
          write = (fun ~rank:_ index v -> Buf.set buf index.(0) v);
          addressing;
          buffer = (fun ~rank:_ -> buf);
        }
      in
      (* rank 1 owns the odd elements: box = {1, 3, ..., 15} *)
      let message () =
        {
          Redist.m_from = 1;
          m_to = 1;
          m_count = n / 2;
          m_box =
            [| Ivset.Periodic { period = 2; pattern = [ (1, 2) ]; extent = n } |];
          m_paths = Atomic.make [];
        }
      in
      let fresh () = Buf.of_array (Array.init n float_of_int) in
      (* gather: buf[k] := buf[2k+1] — destination trails the source *)
      let buf = fresh () in
      Comm.run_local
        ~src:(endpoint buf (Redist.Row_major [| n |]))
        ~dst:(endpoint buf (Redist.Owner_local l))
        (message ());
      for k = 0 to (n / 2) - 1 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "gather element %d" k)
          (float_of_int ((2 * k) + 1))
          (Buf.get buf k)
      done;
      (* scatter: buf[2k+1] := buf[k] — destination overtakes the source *)
      let buf = fresh () in
      Comm.run_local
        ~src:(endpoint buf (Redist.Owner_local l))
        ~dst:(endpoint buf (Redist.Row_major [| n |]))
        (message ());
      for k = 0 to (n / 2) - 1 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "scatter element %d" k)
          (float_of_int k)
          (Buf.get buf ((2 * k) + 1))
      done)

(* The same overlap discipline at the Buf level: blit is memmove in
   both directions on one wrapper, and copy_run's same-wrapper branch
   keeps short overlapping runs correct in both directions too. *)
let test_buf_overlap () =
  let fresh () = Buf.of_array (Array.init 12 float_of_int) in
  let check name expected b =
    Alcotest.(check (list (float 0.0))) name expected
      (Array.to_list (Buf.to_array b))
  in
  let b = fresh () in
  Buf.blit b 0 b 3 8;
  check "blit forward overlap"
    [ 0.; 1.; 2.; 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 11. ]
    b;
  let b = fresh () in
  Buf.blit b 3 b 0 8;
  check "blit backward overlap"
    [ 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 8.; 9.; 10.; 11. ]
    b;
  let b = fresh () in
  Buf.copy_run b 0 0 b 3 0 8 1;
  check "copy_run same-wrapper forward overlap"
    [ 0.; 1.; 2.; 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7.; 11. ]
    b;
  let b = fresh () in
  Buf.copy_run b 3 0 b 0 0 8 1;
  check "copy_run same-wrapper backward overlap"
    [ 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 8.; 9.; 10.; 11. ]
    b

(* --- (e) Buf.copy_run against a per-element reference --------------------------- *)

(* One strided run over a buffer of [size] elements: [count] segments of
   [len] at [pos], [pos + stride], ... *)
type side = { size : int; pos : int; stride : int }

type run_case = { src : side; dst : side; len : int; count : int }

let print_run_case c =
  Printf.sprintf
    "src={size=%d pos=%d stride=%d} dst={size=%d pos=%d stride=%d} len=%d \
     count=%d"
    c.src.size c.src.pos c.src.stride c.dst.size c.dst.pos c.dst.stride c.len
    c.count

(* Lengths across the kernel's unit / short / long boundaries (the blit
   threshold is 256), and the degenerate 0. *)
let gen_len =
  QCheck2.Gen.(
    frequency
      [
        (1, return 0);
        (3, return 1);
        (4, int_range 2 40);
        (3, int_range 250 300);
      ])

let gen_stride len =
  QCheck2.Gen.(
    frequency
      [
        (1, return 0);
        (1, return len);
        (1, return (-len));
        (3, int_range (-(len + 40)) (len + 40));
      ])

(* Elements [count] segments of [len] at stride [stride] span. *)
let span ~len ~count ~stride = (max 0 (count - 1) * abs stride) + max len 1

(* A start within two elements of the valid range on either side, so
   some runs leave the buffer by one or two elements at either end. *)
let gen_side ~len ~count ~stride ~size =
  QCheck2.Gen.(
    let vlo = if stride < 0 then max 0 (count - 1) * -stride else 0 in
    let vhi = vlo + (size - span ~len ~count ~stride) in
    let+ pos = int_range (vlo - 2) (vhi + 2) in
    { size; pos; stride })

(* Buffers that fit the run with up to 24 elements of slack; on one
   wrapper ([same]) the buffer fits both sides. *)
let gen_run_case ~same =
  QCheck2.Gen.(
    let* len = gen_len in
    let* count = int_range 0 6 in
    let* ss = gen_stride len in
    let* ds = gen_stride len in
    let sspan = span ~len ~count ~stride:ss
    and dspan = span ~len ~count ~stride:ds in
    let* slack_s = int_range 0 24 in
    let* slack_d = int_range 0 24 in
    let ssize = if same then max sspan dspan + slack_s else sspan + slack_s in
    let dsize = if same then ssize else dspan + slack_d in
    let* src = gen_side ~len ~count ~stride:ss ~size:ssize in
    let+ dst = gen_side ~len ~count ~stride:ds ~size:dsize in
    { src; dst; len; count })

(* Every (source, destination) index pair the run copies, in order. *)
let run_pairs c =
  List.concat_map
    (fun i ->
      List.init c.len (fun j ->
          ( c.src.pos + (i * c.src.stride) + j,
            c.dst.pos + (i * c.dst.stride) + j )))
    (List.init (max 0 c.count) Fun.id)

let in_range n i = i >= 0 && i < n

(* The reference: if any index leaves its buffer, [Invalid_argument] and
   no write; otherwise every source element is read (in run order), then
   written in the same order — memmove's result, which for distinct
   buffers is plain element-by-element copying. *)
let copy_run_matches ~same c =
  let sbuf =
    Buf.of_array (Array.init c.src.size (fun i -> float_of_int i +. 0.5))
  in
  let dbuf =
    if same then sbuf
    else Buf.of_array (Array.init c.dst.size (fun i -> -.float_of_int i -. 1.0))
  in
  let pairs = run_pairs c in
  let valid =
    List.for_all
      (fun (s, d) -> in_range c.src.size s && in_range c.dst.size d)
      pairs
  in
  let expected = Buf.to_array dbuf in
  if valid then begin
    let vals = List.map (fun (s, _) -> Buf.get sbuf s) pairs in
    List.iter2 (fun (_, d) v -> expected.(d) <- v) pairs vals
  end;
  let raised =
    match
      Buf.copy_run sbuf c.src.pos c.src.stride dbuf c.dst.pos c.dst.stride
        c.len c.count
    with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  raised = not valid && Buf.to_array dbuf = expected

let prop_copy_run_reference =
  QCheck2.Test.make
    ~name:"Buf.copy_run = per-element copy; out of range raises, no write"
    ~print:print_run_case ~count:600 (gen_run_case ~same:false)
    (copy_run_matches ~same:false)

let prop_copy_run_aliased =
  QCheck2.Test.make
    ~name:"Buf.copy_run on one wrapper = memmove (read all, then write)"
    ~print:print_run_case ~count:600 (gen_run_case ~same:true)
    (copy_run_matches ~same:true)

(* --- (f) slice walk = scalar box-slice walk ------------------------------------ *)

(* Windows of a message's payload order worth checking: every window
   when the message is small, otherwise starts and lengths around the
   first run's segment length (mid-segment starts, windows shorter than
   a segment, windows crossing segment and run boundaries) plus the full
   range. *)
let slice_windows ~count (runs : Redist.run array) =
  if count <= 16 then
    List.concat_map
      (fun off -> List.init (count - off) (fun l -> (off, l + 1)))
      (List.init count Fun.id)
  else
    let rl = if Array.length runs > 0 then runs.(0).Redist.r_len else 1 in
    let pick xs lo hi =
      List.sort_uniq compare (List.filter (fun x -> x >= lo && x <= hi) xs)
    in
    List.concat_map
      (fun off ->
        List.map
          (fun len -> (off, len))
          (pick
             [ 1; 2; rl - 1; rl; rl + 1; 2 * rl; count / 2; count - off ]
             1 (count - off)))
      (pick [ 0; 1; rl - 1; rl; rl + 1; count / 2; count - 1 ] 0 (count - 1))

(* [pack_slice] / [unpack_slice] of one window against the scalar walk
   over [Redist.iter_box_slice], with buffer addresses from the oracle
   addressing; staging slots past the window and payload elements
   outside it must stay untouched. *)
let slice_matches ~extents ~sa ~da (m : Redist.message) runs (off, len) =
  let size = Array.fold_left ( * ) 1 extents in
  let sbuf = Buf.of_array (Array.init size (fun i -> float_of_int i +. 0.5)) in
  let staging = Buf.of_array (Array.make (len + 2) (-7.0)) in
  let expected_staging = Array.make (len + 2) (-7.0) in
  let k = ref 0 in
  Redist.iter_box_slice m.Redist.m_box ~off ~len (fun index ->
      expected_staging.(!k) <- Buf.get sbuf (oracle_address sa extents index);
      incr k);
  Comm.pack_slice runs sbuf staging ~off ~len;
  let packed = Buf.to_array staging = expected_staging && !k = len in
  let staging =
    Buf.of_array (Array.init (len + 2) (fun k -> 1000.0 +. float_of_int k))
  in
  let dbuf = Buf.create size in
  let expected_dst = Array.make size 0.0 in
  let k = ref 0 in
  Redist.iter_box_slice m.Redist.m_box ~off ~len (fun index ->
      expected_dst.(oracle_address da extents index) <- Buf.get staging !k;
      incr k);
  Comm.unpack_slice runs staging dbuf ~off ~len;
  packed && Buf.to_array dbuf = expected_dst

let slices_match ~(src : Layout.t) ~(dst : Layout.t) =
  let plan = Redist.plan_intervals ~src ~dst in
  let extents = src.Layout.extents in
  List.for_all
    (fun (m : Redist.message) ->
      List.for_all
        (fun (sa, da) ->
          let runs = Redist.message_runs ~src:sa ~dst:da m in
          List.for_all
            (slice_matches ~extents ~sa ~da m runs)
            (slice_windows ~count:m.Redist.m_count runs))
        (addressings ~src ~dst))
    (plan.Redist.moves @ plan.Redist.locals)

let prop_slices_scalar =
  QCheck2.Test.make
    ~name:"pack_slice/unpack_slice = scalar box-slice walk, all addressings"
    ~print:Test_redist_props.print_pair ~count:150 Test_redist_props.gen_pair
    (fun (src, dst) -> slices_match ~src ~dst)

(* Multi-dimensional and strided corners the 1-D generator cannot reach,
   with a check that the windows tried really include each shape: a
   start inside a segment, a window shorter than a segment, one that
   crosses a run boundary, and the full range. *)
let test_slices_corners () =
  let grid_2d ~extents dists =
    Layout.of_mapping ~extents
      (Mapping.direct ~array_name:"a" ~extents ~dist:dists
         ~procs:(Procs.make "G" [| 2; 2 |]))
  in
  let e2 = [| 8; 6 |] in
  let pairs =
    [
      ( "2-D corner turn",
        layout_nd ~extents:e2 [| Dist.block; Dist.star |] 4,
        layout_nd ~extents:e2 [| Dist.star; Dist.block |] 4 );
      ( "2-D block -> cyclic both dims",
        grid_2d ~extents:e2 [| Dist.block; Dist.cyclic |],
        grid_2d ~extents:e2 [| Dist.cyclic; Dist.block_sized 3 |] );
      ( "block -> cyclic(3)",
        layout_nd ~extents:[| 40 |] [| Dist.block |] 2,
        layout_nd ~extents:[| 40 |] [| Dist.cyclic_sized 3 |] 2 );
    ]
  in
  let mid = ref false and short = ref false in
  let cross = ref false and full = ref false in
  List.iter
    (fun (name, src, dst) ->
      Alcotest.(check bool) name true (slices_match ~src ~dst);
      let plan = Redist.plan_intervals ~src ~dst in
      List.iter
        (fun (m : Redist.message) ->
          let runs =
            Redist.message_runs ~src:(Redist.Owner_local src)
              ~dst:(Redist.Row_major src.Layout.extents) m
          in
          let r = runs.(0) in
          let rl = r.Redist.r_len and r0 = r.Redist.r_len * r.Redist.r_count in
          List.iter
            (fun (off, len) ->
              if off mod rl <> 0 && off < r0 then mid := true;
              if len < rl then short := true;
              if off < r0 && off + len > r0 then cross := true;
              if off = 0 && len = m.Redist.m_count then full := true)
            (slice_windows ~count:m.Redist.m_count runs))
        plan.Redist.moves)
    pairs;
  Alcotest.(check (list bool))
    "window shapes covered" [ true; true; true; true ]
    [ !mid; !short; !cross; !full ]

(* --- (g) Ivset.to_runs ----------------------------------------------------------- *)

let test_ivset_to_runs () =
  let p =
    Ivset.Periodic { period = 8; pattern = [ (1, 3); (6, 7) ]; extent = 20 }
  in
  Alcotest.(check (list (pair int int)))
    "periodic runs"
    [ (1, 2); (6, 1); (9, 2); (14, 1); (17, 2) ]
    (Ivset.to_runs p);
  Alcotest.(check (list (pair int int)))
    "finite runs" [ (0, 4) ]
    (Ivset.to_runs (Ivset.Finite [ (0, 2); (2, 4) ]));
  Alcotest.(check (list (pair int int))) "empty" [] (Ivset.to_runs (Ivset.Finite []))

let suite =
  [
    Qcheck_env.to_alcotest prop_runs_exact;
    Alcotest.test_case "run decomposition corners" `Quick
      test_runs_exact_corners;
    Qcheck_env.to_alcotest prop_paths_equal;
    Qcheck_env.to_alcotest prop_paths_equal_par;
    Qcheck_env.to_alcotest prop_paths_equal_identity;
    Alcotest.test_case "self-message corners" `Quick
      test_paths_self_message_corners;
    Qcheck_env.to_alcotest prop_run_blits_charged;
    Qcheck_env.to_alcotest prop_zero_copy_charged;
    Alcotest.test_case "pool acquire/release" `Quick test_pool_unit;
    Alcotest.test_case "pool steady state" `Quick test_pool_steady_state;
    Alcotest.test_case "zero-copy steady state" `Quick
      test_zero_copy_steady_state;
    Alcotest.test_case "direct path in-place overlap" `Quick
      test_direct_overlap_inplace;
    Alcotest.test_case "Buf overlap semantics" `Quick test_buf_overlap;
    Qcheck_env.to_alcotest prop_copy_run_reference;
    Qcheck_env.to_alcotest prop_copy_run_aliased;
    Qcheck_env.to_alcotest prop_slices_scalar;
    Alcotest.test_case "slice walk corners" `Quick test_slices_corners;
    Alcotest.test_case "Ivset.to_runs" `Quick test_ivset_to_runs;
  ]
