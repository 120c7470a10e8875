(* Redistribution engine: given a source and a target layout of the same
   array, compute the communication plan — which (sender, receiver)
   processor pairs exchange which elements.

   Every planned message carries its payload as a *box*: one compressed
   periodic interval set per array dimension whose cross product is
   exactly the element set exchanged, i.e. the strided sections a real
   SPMD runtime packs into the send buffer.  Two algorithms compute the
   same plan:

   - [plan_naive]: walk every element, look up both owners.  The oracle.
     Its boxes come from the interval machinery and are cross-checked
     against the walked counts.
   - [plan_intervals]: exploit per-dimension structure, a la the efficient
     block-cyclic redistribution algorithms of Prylli & Tourancheau [19]:
     the elements owned along one dimension by source coordinate c1 and
     target coordinate c2 form an intersection of periodic interval sets,
     and a (sender, receiver) payload is the cross product of the
     per-dimension intersections.  Cost is O(procs^2 * periods) and
     independent of the array extent.

   Replicated and constant-aligned grid dimensions do not force a naive
   walk: they never carry an array dimension, so they only constrain
   which grid coordinates participate — a constant alignment pins the
   coordinate, a replicated source dimension sends from the canonical
   coordinate 0 (matching [Layout.owner]) and a replicated target
   dimension receives on every coordinate (matching [Layout.owners]). *)

open Hpfc_mapping

(* A message payload: per array dimension, the owned-intersection set in
   the compressed periodic representation.  Kept unmaterialized so plans
   stay extent-independent; the executor expands it lazily. *)
type box = Ivset.t array

let box_size (b : box) =
  Array.fold_left (fun acc s -> acc * Ivset.cardinal s) 1 b

(* One compiled copy shape in the flat address spaces of the two copies:
   [r_count] segments of [r_len] consecutive elements each, the i-th
   reading at [r_src + i * r_src_stride] and writing at
   [r_dst + i * r_dst_stride].  A plain contiguous run has [r_count] = 1
   (strides are then irrelevant and set to 0). *)
type run = {
  r_src : int;
  r_dst : int;
  r_len : int;
  r_count : int;
  r_src_stride : int;
  r_dst_stride : int;
}

(* How a copy's flat storage is addressed — what box-to-run compilation
   needs to know about an endpoint, without capturing the payload:

   - [Row_major extents]: one global row-major array (the canonical
     backend); an index addresses [global_linear_index extents index].
   - [Owner_local layout]: one buffer per rank, laid out row-major over
     the rank's local extents (the distributed backend); an index
     addresses [local_linear_index layout index].

   Equal layouts address identically, so runs compiled against one store
   are valid for any store that shares the plan (the plan cache key
   includes everything [Layout.equal] compares). *)
type addressing =
  | Row_major of int array  (* global extents *)
  | Owner_local of Layout.t

(* How a message's compiled runs move data: [Direct] runs copy payload
   to payload with no staging buffer (self-messages, and globally
   addressed endpoints); [Staged] runs pack through a staging buffer the
   way a real SPMD send must.  Decided once per memoized message by
   [message_datapath]. *)
type datapath = Direct of run array | Staged of run array

type message = {
  m_from : int;  (* sender, linear rank in the source grid *)
  m_to : int;  (* receiver, linear rank in the target grid *)
  m_count : int;  (* elements = box_size m_box *)
  m_box : box;
  m_paths : (int * datapath) list Atomic.t;
      (* compiled datapaths (runs + staging-vs-direct decision) memoized
         per (src, dst) addressing-kind key, next to the plan's memoized
         [sprog]; at most four entries.  Published through an atomic so
         a domain that finds the memo already filled observes fully
         built run arrays (plans cached in a sharded Plan_cache are
         shared across service workers); concurrent fills of one key
         compute identical runs and the CAS keeps whichever lands
         first.  Parallel executors still precompile on the coordinator
         before sharing the message with workers — the memo makes late
         fills safe, not free. *)
}

(* A slice of a message's staged payload: elements [sl_off, sl_off +
   sl_len) of its row-major box order — which is exactly the staging
   buffer order of the pack walk, so a slice is a contiguous window of
   the message's send buffer (the dynamic-slice primitive of the
   collective lowering, cf. Rink et al., arXiv:2112.01075). *)
type slice = { sl_msg : message; sl_off : int; sl_len : int }

(* One collective phase: a contention-free set of slices (distinct
   senders, distinct receivers, at most one slice per message) whose
   total volume respects the lowering's staging budget. *)
type phase = slice list

(* Which portable collective a plan's phase program realizes — a cost
   tag (each kind carries its own alpha), not a correctness property. *)
type phase_kind = All_to_all | All_gather | Scatter

(* A plan's collective lowering: the phase program plus the budgets it
   was built under.  [c_slice_cap] bounds any single slice (O(volume /
   P^2), so balanced exchanges are sliced below their message size);
   [c_phase_cap] bounds any phase's total volume by the point-to-point
   step program's peak, which makes "collective peak <= p2p peak" hold
   structurally on every plan. *)
type collective = {
  c_kind : phase_kind;
  c_slice_cap : int;
  c_phase_cap : int;
  c_phases : phase list;
}

type plan = {
  moves : message list;  (* m_from <> m_to, sorted by (from, to) *)
  locals : message list;  (* m_from = m_to: on-processor moves *)
  nprocs_src : int;
  nprocs_dst : int;
  mutable sprog : step list option;  (* memoized step program *)
  mutable cprog : collective option;  (* memoized collective lowering *)
}

(* A contention-free communication step: messages of the plan in which no
   processor sends more than one message and no processor receives more
   than one (one-port, full-duplex). *)
and step = message list

let triple m = (m.m_from, m.m_to, m.m_count)
let pairs plan = List.map triple plan.moves
let local_pairs plan = List.map triple plan.locals

let total_moved plan =
  List.fold_left (fun acc m -> acc + m.m_count) 0 plan.moves

let local_total plan =
  List.fold_left (fun acc m -> acc + m.m_count) 0 plan.locals

let nb_messages plan = List.length plan.moves

(* Critical-path time under an alpha-beta model: max over processors of
   send-side and receive-side cost. *)
let modeled_time (cost : Machine.cost_model) plan =
  let send_msgs = Hashtbl.create 8
  and send_vol = Hashtbl.create 8
  and recv_msgs = Hashtbl.create 8
  and recv_vol = Hashtbl.create 8 in
  let bump tbl k v = Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  List.iter
    (fun (f, t, n) ->
      bump send_msgs f 1;
      bump send_vol f n;
      bump recv_msgs t 1;
      bump recv_vol t n)
    (pairs plan);
  let side msgs vol =
    Hashtbl.fold
      (fun p m acc ->
        let v = Option.value (Hashtbl.find_opt vol p) ~default:0 in
        Float.max acc ((cost.Machine.alpha *. float_of_int m) +. (cost.Machine.beta *. float_of_int v)))
      msgs 0.0
  in
  Float.max (side send_msgs send_vol) (side recv_msgs recv_vol)

(* --- stepped scheduling ---------------------------------------------------- *)

(* A plan's step decomposition is a proper edge coloring of the bipartite
   sender/receiver multigraph; the greedy first-fit coloring below uses at
   most 2*degree - 1 steps (the optimum is the maximum degree, by
   Koenig's theorem), which is enough for the time and peak-memory shapes
   we model (Rink et al., arXiv:2112.01075 decompose redistributions the
   same way to bound staging memory). *)

let step_volume (s : step) = List.fold_left (fun acc m -> acc + m.m_count) 0 s

let peak_step_volume steps =
  List.fold_left (fun acc s -> max acc (step_volume s)) 0 steps

let compare_endpoints a b = compare (a.m_from, a.m_to) (b.m_from, b.m_to)

(* Greedy first-fit edge coloring, largest messages first so the heavy
   messages share steps (better packing, and the per-step max that the
   stepped time model charges is paid by fewer steps).  A pure
   [plan -> step program] transformer: the cost model and the executor
   both consume its output. *)
let steps (plan : plan) : step list =
  let by_size =
    List.stable_sort (fun a b -> compare b.m_count a.m_count) plan.moves
  in
  let slots = ref [] in  (* (senders, receivers, messages), in step order *)
  let place m =
    let rec find = function
      | [] ->
        let slot = (Hashtbl.create 8, Hashtbl.create 8, ref []) in
        slots := !slots @ [ slot ];
        slot
      | ((senders, receivers, _) as slot) :: rest ->
        if Hashtbl.mem senders m.m_from || Hashtbl.mem receivers m.m_to then
          find rest
        else slot
    in
    let senders, receivers, msgs = find !slots in
    Hashtbl.replace senders m.m_from ();
    Hashtbl.replace receivers m.m_to ();
    msgs := m :: !msgs
  in
  List.iter place by_size;
  List.map (fun (_, _, msgs) -> List.sort compare_endpoints !msgs) !slots

(* The memoized step program of a plan (plans are immutable once built,
   and cached plans recur on every loop iteration, so the coloring is
   paid once per distinct layout pair). *)
let step_program plan =
  match plan.sprog with
  | Some s -> s
  | None ->
    let s = steps plan in
    plan.sprog <- Some s;
    s

(* Stepped time: within a step every message proceeds in parallel without
   port contention, so the step costs its slowest message; steps are
   serialized.  Always at least the burst critical path: a processor with k
   messages to send appears in k distinct steps, each charging at least
   alpha + beta * (that message), so the sum dominates its send-side
   alpha-beta cost (and symmetrically for receives). *)
let step_time (cost : Machine.cost_model) (s : step) =
  List.fold_left
    (fun m msg ->
      Float.max m
        (cost.Machine.alpha +. (cost.Machine.beta *. float_of_int msg.m_count)))
    0.0 s

let modeled_time_of_steps (cost : Machine.cost_model) steps =
  List.fold_left (fun acc s -> acc +. step_time cost s) 0.0 steps

let modeled_time_stepped cost plan =
  modeled_time_of_steps cost (step_program plan)

(* --- collective lowering ---------------------------------------------------- *)

(* The second lowering: compile the plan into a short sequence of
   portable collective phases instead of point-to-point steps, trading a
   little modeled latency (more, smaller rounds) for a hard bound on
   peak staging memory — the memory-efficient redistribution idea of
   Rink et al. (arXiv:2112.01075).

   Structure.  Messages are grouped into *ring shift classes* by
   (m_to - m_from) mod P: within one residue class distinct senders have
   distinct receivers, so any subset of a class is contention-free by
   construction.  Each message's staged payload — a contiguous window of
   its send buffer, since pack order is row-major box order — is then
   cut into slices of at most [c_slice_cap] = O(volume / P^2) elements,
   and each class's slices are packed greedily into phases of total
   volume at most [c_phase_cap] = the point-to-point step program's peak
   step volume, at most one slice per message per phase.  Hence every
   phase is contention-free, the phases partition every message's
   payload exactly, and the collective peak staging volume never exceeds
   the point-to-point peak (and sits strictly below it on balanced
   fan-out plans, where the slice cap bites). *)

let nranks plan = max plan.nprocs_src plan.nprocs_dst
let cdiv a b = (a + b - 1) / b

let phase_volume (ph : phase) =
  List.fold_left (fun acc sl -> acc + sl.sl_len) 0 ph

let peak_phase_volume phases =
  List.fold_left (fun acc ph -> max acc (phase_volume ph)) 0 phases

(* Cost tag: one sender fanning out is a (dynamic-slice) scatter; several
   senders each broadcasting one identical box to all their receivers is
   an all-gather (the replicated-destination shape); anything else is an
   all-to-all.  Classification only picks the phase alpha — the phase
   program itself is built the same way for every kind. *)
let classify plan =
  match plan.moves with
  | [] -> All_to_all
  | moves -> (
    match List.sort_uniq compare (List.map (fun m -> m.m_from) moves) with
    | [ _ ] -> Scatter
    | senders ->
      let replicated_out s =
        match List.filter (fun m -> m.m_from = s) moves with
        | [] | [ _ ] -> false
        | m0 :: rest -> List.for_all (fun m -> m.m_box = m0.m_box) rest
      in
      if List.for_all replicated_out senders then All_gather else All_to_all)

let collective_of_plan (plan : plan) : collective =
  let p = max 1 (nranks plan) in
  let volume = total_moved plan in
  let slice_cap = max 1 (cdiv volume (p * p)) in
  let phase_cap = max 1 (peak_step_volume (step_program plan)) in
  let classes = Array.make p [] in
  List.iter
    (fun m ->
      let r = (((m.m_to - m.m_from) mod p) + p) mod p in
      classes.(r) <- m :: classes.(r))
    plan.moves;
  let phases = ref [] in
  Array.iter
    (fun cls ->
      let cls = List.sort compare_endpoints cls in
      let cursors = ref (List.map (fun m -> (m, ref 0)) cls) in
      while !cursors <> [] do
        (* one phase: walk the class in (from, to) order, taking at most
           one slice per message, bounded by both caps.  The first
           cursor always advances (room >= 1), so the loop terminates. *)
        let vol = ref 0 and ph = ref [] in
        List.iter
          (fun (m, off) ->
            let room = min slice_cap (phase_cap - !vol) in
            let take = min room (m.m_count - !off) in
            if take > 0 then begin
              ph := { sl_msg = m; sl_off = !off; sl_len = take } :: !ph;
              off := !off + take;
              vol := !vol + take
            end)
          !cursors;
        phases := List.rev !ph :: !phases;
        cursors := List.filter (fun (m, off) -> !off < m.m_count) !cursors
      done)
    classes;
  {
    c_kind = classify plan;
    c_slice_cap = slice_cap;
    c_phase_cap = phase_cap;
    c_phases = List.rev !phases;
  }

(* The memoized collective lowering, next to [step_program] (and
   precompiled in [Plan_cache.find] before a plan is published to other
   domains, for the same reason). *)
let collective_program plan =
  match plan.cprog with
  | Some c -> c
  | None ->
    let c = collective_of_plan plan in
    plan.cprog <- Some c;
    c

let phase_alpha (cost : Machine.cost_model) = function
  | All_to_all -> cost.Machine.coll_alpha_a2a
  | All_gather -> cost.Machine.coll_alpha_ag
  | Scatter -> cost.Machine.coll_alpha_scatter

(* A phase's modeled cost mirrors [step_time]: one per-kind startup plus
   the slowest slice (slices of one phase proceed in parallel without
   port contention, exactly like a step's messages). *)
let phase_time cost kind (ph : phase) =
  List.fold_left
    (fun acc sl ->
      Float.max acc
        (phase_alpha cost kind
        +. (cost.Machine.coll_beta *. float_of_int sl.sl_len)))
    0.0 ph

let modeled_time_of_phases cost (c : collective) =
  List.fold_left (fun acc ph -> acc +. phase_time cost c.c_kind ph) 0.0 c.c_phases

let modeled_time_collective cost plan =
  modeled_time_of_phases cost (collective_program plan)

let nb_phases (c : collective) = List.length c.c_phases

let nb_slices (c : collective) =
  List.fold_left (fun acc ph -> acc + List.length ph) 0 c.c_phases

let peak_collective_volume plan =
  peak_phase_volume (collective_program plan).c_phases

(* --- per-dimension interval machinery -------------------------------------- *)

(* Owned sets along array dimension [dim], indexed by the grid coordinate
   of the driving grid dimension ([Local] dims contribute a single
   pseudo-coordinate 0 owning the whole extent). *)
let dim_sets (l : Layout.t) dim : Ivset.t array =
  match l.Layout.roles.(dim) with
  | Layout.Local -> [| Ivset.Finite [ (0, l.Layout.extents.(dim)) ] |]
  | Layout.Dist pdim ->
    Array.init l.Layout.procs.Procs.shape.(pdim) (fun c ->
        Layout.owned_set l ~array_dim:dim ~coord:c)

(* tables.(d).(c1).(c2): the owned-intersection set (and its cardinal)
   along dimension [d] between source coordinate c1 and target coordinate
   c2.  Sets use the compressed periodic representation, so each
   intersection costs O(combined period), not O(extent). *)
type dim_tables = {
  t_boxes : Ivset.t array array array;
  t_counts : int array array array;
}

let dim_tables ~(src : Layout.t) ~(dst : Layout.t) =
  let rank = Layout.rank src in
  let t_boxes =
    Array.init rank (fun d ->
        let s1 = dim_sets src d and s2 = dim_sets dst d in
        Array.map (fun a -> Array.map (fun b -> Ivset.inter a b) s2) s1)
  in
  { t_boxes; t_counts = Array.map (Array.map (Array.map Ivset.cardinal)) t_boxes }

(* Coordinate of the grid dim driven by array dim [d] within the full
   coordinate vector (0 for Local pseudo-dims). *)
let dim_coord (l : Layout.t) coords d =
  match l.Layout.roles.(d) with
  | Layout.Local -> 0
  | Layout.Dist pdim -> coords.(pdim)

(* Grid dimensions not driven by any array dimension only constrain which
   coordinates participate in the exchange.  On the source side the
   canonical copy sends: a constant alignment pins the coordinate and a
   replicated dimension sends from coordinate 0, exactly [Layout.owner].
   On the target side every replica receives: a constant alignment pins
   the coordinate and a replicated dimension admits all, exactly
   [Layout.owners]. *)
let admissible_sender (l : Layout.t) coords =
  let ok = ref true in
  Array.iteri
    (fun pdim source ->
      match source with
      | Layout.From_axis _ -> ()
      | Layout.From_const c -> if coords.(pdim) <> c then ok := false
      | Layout.Replicated -> if coords.(pdim) <> 0 then ok := false)
    l.Layout.sources;
  !ok

let admissible_receiver (l : Layout.t) coords =
  let ok = ref true in
  Array.iteri
    (fun pdim source ->
      match source with
      | Layout.From_axis _ | Layout.Replicated -> ()
      | Layout.From_const c -> if coords.(pdim) <> c then ok := false)
    l.Layout.sources;
  !ok

let message_box ~(src : Layout.t) ~(dst : Layout.t) tables cs cd : box =
  Array.init (Layout.rank src) (fun d ->
      tables.t_boxes.(d).(dim_coord src cs d).(dim_coord dst cd d))

let make_plan ~moves ~locals ~nprocs_src ~nprocs_dst =
  {
    moves = List.sort compare_endpoints moves;
    locals = List.sort compare_endpoints locals;
    nprocs_src;
    nprocs_dst;
    sprog = None;
    cprog = None;
  }

(* --- interval engine ------------------------------------------------------ *)

let plan_intervals ~(src : Layout.t) ~(dst : Layout.t) : plan =
  assert (src.Layout.extents = dst.Layout.extents);
  let rank = Layout.rank src in
  let tables = dim_tables ~src ~dst in
  let np_src = Procs.size src.Layout.procs
  and np_dst = Procs.size dst.Layout.procs in
  let moves = ref [] and locals = ref [] in
  for ps = 0 to np_src - 1 do
    let cs = Procs.delinearize src.Layout.procs ps in
    if admissible_sender src cs then
      for pd = 0 to np_dst - 1 do
        let cd = Procs.delinearize dst.Layout.procs pd in
        if admissible_receiver dst cd then begin
          let count = ref 1 in
          for d = 0 to rank - 1 do
            count :=
              !count * tables.t_counts.(d).(dim_coord src cs d).(dim_coord dst cd d)
          done;
          if !count > 0 then begin
            let m =
              {
                m_from = ps;
                m_to = pd;
                m_count = !count;
                m_box = message_box ~src ~dst tables cs cd;
                m_paths = Atomic.make [];
              }
            in
            (* processors are identified across layouts by linear rank *)
            if ps = pd then locals := m :: !locals else moves := m :: !moves
          end
        end
      done
  done;
  make_plan ~moves:!moves ~locals:!locals ~nprocs_src:np_src ~nprocs_dst:np_dst

(* --- naive oracle -------------------------------------------------------- *)

let iter_indices extents f =
  let rank = Array.length extents in
  let index = Array.make rank 0 in
  let rec loop d =
    if d = rank then f index
    else
      for x = 0 to extents.(d) - 1 do
        index.(d) <- x;
        loop (d + 1)
      done
  in
  if Array.for_all (fun e -> e > 0) extents then loop 0

let plan_naive ~(src : Layout.t) ~(dst : Layout.t) : plan =
  assert (src.Layout.extents = dst.Layout.extents);
  let np_src = Procs.size src.Layout.procs
  and np_dst = Procs.size dst.Layout.procs in
  let tally = Hashtbl.create 64 in
  iter_indices src.Layout.extents (fun index ->
      let from_lin = Procs.linearize src.Layout.procs (Layout.owner src index) in
      List.iter
        (fun dst_coords ->
          let to_lin = Procs.linearize dst.Layout.procs dst_coords in
          Hashtbl.replace tally (from_lin, to_lin)
            (1 + Option.value (Hashtbl.find_opt tally (from_lin, to_lin)) ~default:0))
        (Layout.owners dst index));
  (* attach each pair's interval box; its size must reproduce the walked
     count exactly — a per-pair cross-check of the interval machinery
     against the element-walk oracle *)
  let tables = dim_tables ~src ~dst in
  let moves = ref [] and locals = ref [] in
  Hashtbl.iter
    (fun (f, t) n ->
      let cs = Procs.delinearize src.Layout.procs f
      and cd = Procs.delinearize dst.Layout.procs t in
      let b = message_box ~src ~dst tables cs cd in
      assert (box_size b = n);
      let m =
        { m_from = f; m_to = t; m_count = n; m_box = b; m_paths = Atomic.make [] }
      in
      if f = t then locals := m :: !locals else moves := m :: !moves)
    tally;
  make_plan ~moves:!moves ~locals:!locals ~nprocs_src:np_src ~nprocs_dst:np_dst

(* --- box iteration --------------------------------------------------------- *)

(* Iterate every index vector of a box in row-major order (the packing
   order of the communication executor).  The per-dimension sets are
   materialized here, at execution time: cost is proportional to the
   elements being moved, never to the array extent. *)
let iter_box (b : box) f =
  let ivs = Array.map Ivset.to_intervals b in
  let rank = Array.length b in
  let index = Array.make rank 0 in
  let rec loop d =
    if d = rank then f index
    else
      List.iter
        (fun (lo, hi) ->
          for x = lo to hi - 1 do
            index.(d) <- x;
            loop (d + 1)
          done)
        ivs.(d)
  in
  if rank > 0 then loop 0

(* [iter_box] restricted to positions [off, off + len) of the row-major
   packing walk — the scalar oracle's view of one payload slice. *)
let iter_box_slice (b : box) ~off ~len f =
  let stop = off + len in
  let k = ref 0 in
  try
    iter_box b (fun index ->
        if !k >= stop then raise Exit;
        if !k >= off then f index;
        incr k)
  with Exit -> ()

(* --- box-to-run compilation ------------------------------------------------- *)

(* Row-major strides of an extents vector (last dimension stride 1). *)
let row_major_strides extents =
  let rank = Array.length extents in
  let str = Array.make (max rank 1) 1 in
  for d = rank - 2 downto 0 do
    str.(d) <- str.(d + 1) * extents.(d + 1)
  done;
  str

(* One side of a message, compiled to per-dimension offset arithmetic:
   the strides of the addressed flat allocation plus the offset of the
   first index of an owned interval.  Within a box interval both address
   spaces advance by exactly stride(d) per index — globals trivially,
   locals because every index of the interval is in the rank's owned
   set, so the dense local index rises by one per element.  That single
   fact is what makes every innermost interval a contiguous run. *)
let side_addresser addressing ~rank_lin =
  match addressing with
  | Row_major extents ->
    let str = row_major_strides extents in
    (str, fun d lo -> lo * str.(d))
  | Owner_local (l : Layout.t) ->
    let coords = Procs.delinearize l.Layout.procs rank_lin in
    let str = row_major_strides (Layout.local_extents l ~proc:coords) in
    let sets =
      Array.mapi
        (fun d role ->
          match role with
          | Layout.Local -> None
          | Layout.Dist pdim ->
            Some (Layout.owned_set l ~array_dim:d ~coord:coords.(pdim)))
        l.Layout.roles
    in
    ( str,
      fun d lo ->
        (match sets.(d) with
        | None -> lo
        | Some s -> Ivset.count_below s lo)
        * str.(d) )

(* Lower a message's box into runs over the two flat address spaces.
   The box's per-dimension interval runs are walked in row-major order
   (exactly [iter_box]'s packing order); each innermost interval yields
   one contiguous (src, dst, len) segment.  Segments are then compressed
   at the offset level, with no stride-constancy assumption on the
   layouts: exactly adjacent segments concatenate, and equal-length
   segments whose src and dst deltas are both constant collapse into one
   strided run — a cyclic(k) innermost dimension becomes a single run of
   k-element segments. *)
let compile_runs ~src ~dst (m : message) : run array =
  let rank = Array.length m.m_box in
  if rank = 0 then [||]
  else begin
    let ivs = Array.map Ivset.to_runs m.m_box in
    let sstr, sbase = side_addresser src ~rank_lin:m.m_from
    and dstr, dbase = side_addresser dst ~rank_lin:m.m_to in
    let segs = ref [] in
    let inner = rank - 1 in
    let rec walk d s0 d0 =
      if d = inner then
        List.iter
          (fun (lo, len) -> segs := (s0 + sbase d lo, d0 + dbase d lo, len) :: !segs)
          ivs.(d)
      else
        List.iter
          (fun (lo, len) ->
            let s1 = s0 + sbase d lo and d1 = d0 + dbase d lo in
            for i = 0 to len - 1 do
              walk (d + 1) (s1 + (i * sstr.(d))) (d1 + (i * dstr.(d)))
            done)
          ivs.(d)
    in
    walk 0 0 0;
    let segs =
      List.rev
        (List.fold_left
           (fun acc (s, t, len) ->
             match acc with
             | (ps, pt, plen) :: rest when ps + plen = s && pt + plen = t ->
               (ps, pt, plen + len) :: rest
             | _ -> (s, t, len) :: acc)
           [] (List.rev !segs))
    in
    let runs = ref [] in
    let flush s t len count ss ds =
      runs :=
        {
          r_src = s;
          r_dst = t;
          r_len = len;
          r_count = count;
          r_src_stride = ss;
          r_dst_stride = ds;
        }
        :: !runs
    in
    let rec group = function
      | [] -> ()
      | (s, t, len) :: rest -> (
        match rest with
        | (s2, t2, len2) :: tl when len2 = len && s2 <> s ->
          let ss = s2 - s and ds = t2 - t in
          let rec extend count = function
            | (s', t', len') :: tl'
              when len' = len
                   && s' = s + (count * ss)
                   && t' = t + (count * ds) ->
              extend (count + 1) tl'
            | tl' -> (count, tl')
          in
          let count, rest' = extend 2 tl in
          flush s t len count ss ds;
          group rest'
        | _ ->
          flush s t len 1 0 0;
          group rest)
    in
    group segs;
    let arr = Array.of_list (List.rev !runs) in
    assert (
      Array.fold_left (fun acc r -> acc + (r.r_len * r.r_count)) 0 arr
      = m.m_count);
    arr
  end

let addressing_kind = function Row_major _ -> 0 | Owner_local _ -> 1

(* The message's compiled datapath for one (src, dst) addressing pair,
   memoized on the message (plans — and their messages — are cached and
   recur on every loop iteration, so compilation is paid once per
   distinct layout pair and addressing combination).  The
   staging-vs-direct decision is made here, once per memoized message,
   never per step: a message is [Direct] — its runs may be copied
   payload to payload with no staging buffer — exactly when both
   endpoint buffers are reachable from one address space, i.e. it is a
   self-message ([m_from = m_to], both buffers live on that rank) or
   both sides are globally addressed ([Row_major], rank-invariant
   buffers).  Cross-rank messages between per-rank buffers stay
   [Staged]: a real SPMD runtime cannot write a remote payload
   directly. *)
let message_datapath ~src ~dst (m : message) =
  let key = addressing_kind src lor (addressing_kind dst lsl 1) in
  let rec probe () =
    let cur = Atomic.get m.m_paths in
    match List.assoc_opt key cur with
    | Some path -> path
    | None ->
      let runs = compile_runs ~src ~dst m in
      let direct =
        m.m_from = m.m_to
        || (addressing_kind src = 0 && addressing_kind dst = 0)
      in
      let path = if direct then Direct runs else Staged runs in
      (* a lost CAS means another domain filled the memo first; its entry
         is identical, so re-probe and use it *)
      if Atomic.compare_and_set m.m_paths cur ((key, path) :: cur) then path
      else probe ()
  in
  probe ()

let message_runs ~src ~dst (m : message) =
  match message_datapath ~src ~dst m with Direct runs | Staged runs -> runs

(* Total number of contiguous segments a run array copies. *)
let nb_run_segments runs =
  Array.fold_left (fun acc r -> acc + r.r_count) 0 runs

let pp_run ppf r =
  if r.r_count = 1 then
    Fmt.pf ppf "src+%d -> dst+%d : %d" r.r_src r.r_dst r.r_len
  else
    Fmt.pf ppf "src+%d/%+d -> dst+%d/%+d : %d x %d" r.r_src r.r_src_stride
      r.r_dst r.r_dst_stride r.r_count r.r_len

let pp_box ppf (b : box) =
  Fmt.pf ppf "%a"
    (Hpfc_base.Util.pp_list ~sep:" x " (fun ppf s ->
         Fmt.pf ppf "{%a}"
           (Hpfc_base.Util.pp_list (fun ppf (lo, hi) -> Fmt.pf ppf "[%d,%d)" lo hi))
           (Ivset.to_intervals s)))
    (Array.to_list b)

let pp_message ppf m =
  Fmt.pf ppf "P%d -> P%d : %d elements  %a" m.m_from m.m_to m.m_count pp_box
    m.m_box

(* Every cross-processor message of the plan, one per line. *)
let pp_moves ppf plan =
  List.iter (fun m -> Fmt.pf ppf "%a@." pp_message m) plan.moves

let pp_steps ppf plan =
  List.iteri
    (fun i s ->
      Fmt.pf ppf "step %d (%d msgs, %d elements):@." i (List.length s)
        (step_volume s);
      List.iter (fun m -> Fmt.pf ppf "  %a@." pp_message m) s)
    (step_program plan)

let phase_kind_name = function
  | All_to_all -> "all-to-all"
  | All_gather -> "all-gather"
  | Scatter -> "scatter"

let pp_phases ppf plan =
  let c = collective_program plan in
  Fmt.pf ppf "collective %s (slice cap %d, phase cap %d):@."
    (phase_kind_name c.c_kind) c.c_slice_cap c.c_phase_cap;
  List.iteri
    (fun i ph ->
      Fmt.pf ppf "phase %d (%d slices, %d elements):@." i (List.length ph)
        (phase_volume ph);
      List.iter
        (fun sl ->
          Fmt.pf ppf "  P%d -> P%d : [%d,%d) of %d@." sl.sl_msg.m_from
            sl.sl_msg.m_to sl.sl_off (sl.sl_off + sl.sl_len) sl.sl_msg.m_count)
        ph)
    c.c_phases

(* Sanity: a plan covers every element exactly once (modulo replication in
   the destination, where each element lands on several processors). *)
let covered plan = total_moved plan + local_total plan

let equal p1 p2 = pairs p1 = pairs p2 && local_pairs p1 = local_pairs p2

(* --- plan cache ------------------------------------------------------------ *)

(* Memoized plans keyed by the canonicalized (source layout, target layout,
   extents) triple.  Planning cost is O(procs^2) per remap even with the
   interval engine; inside loops the same layout pair recurs on every
   iteration (and across arrays and call frames), so the cache makes all
   but the first occurrence free.  The key strips everything
   [Layout.equal] ignores — grid names — and keeps everything it compares:
   extents, grid shapes, per-grid-dimension sources and per-array-dimension
   roles of both sides.

   The cache is sharded for the multi-tenant service: keys hash-stripe
   over independently locked shards, each an exact LRU over its slice of
   the capacity.  A hit takes no lock to *find* the plan — shards publish
   an immutable map through an [Atomic.t], and a generation stamp
   certifies the probed snapshot was not mutated under the reader — and
   only a brief shard-lock to move the entry to the front of the
   intrusive doubly-linked recency list (O(1), replacing the old
   O(capacity) eviction scan).  Misses compute under the shard lock, so
   one canonical key is never planned twice within a shard no matter how
   many tenants race on it.  Small caches collapse to a single shard, so
   the pre-sharding tests observe the identical exact-LRU sequence. *)
module Plan_cache = struct
  type side = {
    k_shape : int array;
    k_sources : Layout.source array;
    k_roles : Layout.dim_role array;
  }

  type key = { k_extents : int array; k_src : side; k_dst : side }

  let side (l : Layout.t) =
    {
      k_shape = l.Layout.procs.Procs.shape;
      k_sources = l.Layout.sources;
      k_roles = l.Layout.roles;
    }

  let key ~(src : Layout.t) ~(dst : Layout.t) =
    { k_extents = src.Layout.extents; k_src = side src; k_dst = side dst }

  module Kmap = Map.Make (struct
    type t = key

    (* keys are extents / shapes / source and role variants — plain data,
       safe under the polymorphic compare *)
    let compare = Stdlib.compare
  end)

  (* Entries sit both in the shard's published map and on an intrusive
     doubly-linked recency list ([e_prev] toward the MRU end); eviction
     pops the LRU tail in O(1) instead of scanning the whole table. *)
  type entry = {
    e_key : key;
    e_plan : plan;
    mutable e_prev : entry option;
    mutable e_next : entry option;
  }

  type shard = {
    lock : Mutex.t;
    map : entry Kmap.t Atomic.t;
        (* immutable snapshot, replaced wholesale under [lock]: lock-free
           readers always probe a self-consistent map, and the atomic
           publish carries every write made before it (the plan, its
           precompiled step program) to other domains *)
    gen : int Atomic.t;
        (* bumped on every map mutation (insert / evict / clear), never
           on a recency touch: a probe that reads the same generation on
           both sides of its map lookup saw a stable snapshot *)
    s_capacity : int;
    mutable mru : entry option;
    mutable lru : entry option;
    mutable s_size : int;
    mutable s_hits : int;
    mutable s_misses : int;
    mutable s_evictions : int;
  }

  type t = {
    shards : shard array;
    total_capacity : int;
    parent : t option;
        (* two-level lookup for the multi-tenant service: a per-tenant
           cache keeps solo-identical hit/miss/eviction accounting while
           plan *construction* is deduplicated in a shared parent — a
           tenant miss computes through [parent], so the same canonical
           key built by another tenant is shared, never rebuilt *)
  }

  let default_capacity = 512

  (* HPFC_PLAN_CACHE overrides the capacity of caches created without an
     explicit one (the --plan-cache CLI flag passes ?capacity and takes
     precedence).  Invalid or non-positive values are ignored. *)
  let env_capacity =
    lazy
      (match Sys.getenv_opt "HPFC_PLAN_CACHE" with
      | None | Some "" -> None
      | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 1 -> Some n
        | Some _ | None -> None))

  (* One shard per 64 plans of capacity, capped at 8: the default 512
     stripes 8 ways, while small test caches (capacity 2) stay a single
     exact LRU — sharding splits the capacity, so a sharded cache is
     LRU-exact per stripe, not globally. *)
  let default_shards capacity = max 1 (min 8 (capacity / 64))

  let create ?capacity ?shards ?parent () =
    let capacity =
      match capacity with
      | Some c -> max 1 c
      | None -> (
        match Lazy.force env_capacity with
        | Some c -> c
        | None -> default_capacity)
    in
    let n =
      min
        (match shards with Some s -> max 1 s | None -> default_shards capacity)
        capacity
    in
    let shard i =
      {
        lock = Mutex.create ();
        map = Atomic.make Kmap.empty;
        gen = Atomic.make 0;
        s_capacity = (capacity / n) + (if i < capacity mod n then 1 else 0);
        mru = None;
        lru = None;
        s_size = 0;
        s_hits = 0;
        s_misses = 0;
        s_evictions = 0;
      }
    in
    { shards = Array.init n shard; total_capacity = capacity; parent }

  let shard_of c k =
    let n = Array.length c.shards in
    c.shards.(if n = 1 then 0 else Hashtbl.hash k mod n)

  (* Totals summed across shards.  Plain reads: exact when quiescent
     (every test and report point), advisory while writers race. *)
  let sum c f = Array.fold_left (fun acc s -> acc + f s) 0 c.shards
  let size c = sum c (fun s -> s.s_size)
  let capacity c = c.total_capacity
  let nshards c = Array.length c.shards
  let hits c = sum c (fun s -> s.s_hits)
  let misses c = sum c (fun s -> s.s_misses)
  let evictions c = sum c (fun s -> s.s_evictions)

  let clear c =
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        Atomic.set s.map Kmap.empty;
        Atomic.incr s.gen;
        s.mru <- None;
        s.lru <- None;
        s.s_size <- 0;
        s.s_hits <- 0;
        s.s_misses <- 0;
        s.s_evictions <- 0;
        Mutex.unlock s.lock)
      c.shards

  (* Recency-list surgery, all under the shard lock. *)
  let unlink s e =
    (match e.e_prev with
    | Some p -> p.e_next <- e.e_next
    | None -> s.mru <- e.e_next);
    (match e.e_next with
    | Some nx -> nx.e_prev <- e.e_prev
    | None -> s.lru <- e.e_prev);
    e.e_prev <- None;
    e.e_next <- None

  let push_front s e =
    e.e_prev <- None;
    e.e_next <- s.mru;
    (match s.mru with Some m -> m.e_prev <- Some e | None -> s.lru <- Some e);
    s.mru <- Some e

  let touch s e =
    match s.mru with
    | Some m when m == e -> ()
    | _ ->
      unlink s e;
      push_front s e

  (* Drop the least recently used entry: pop the list tail, O(1). *)
  let evict_lru s =
    match s.lru with
    | None -> ()
    | Some victim ->
      unlink s victim;
      Atomic.set s.map (Kmap.remove victim.e_key (Atomic.get s.map));
      Atomic.incr s.gen;
      s.s_size <- s.s_size - 1;
      s.s_evictions <- s.s_evictions + 1

  (* Look up the plan for (src, dst), calling [compute] on a miss.  Hit,
     miss and eviction totals go to the cache itself and, when given, to
     the [machine] — counter bumps plus a [Plan_lookup] trace event (the
     cache outlives machine resets, so per-run reports use the machine's
     view).

     Fast path: a generation-stamped lock-free probe.  Read the shard
     generation, probe the published snapshot, re-read the generation —
     if it moved, a mutation raced the probe and the locked path decides;
     if it held, the entry is current and only the O(1) recency touch
     takes the lock.  The miss path re-probes and computes *under* the
     shard lock, so concurrent tenants missing on one canonical key plan
     it exactly once. *)
  let rec find c ?machine ~src ~dst compute =
    let k = key ~src ~dst in
    let s = shard_of c k in
    let note hit =
      Option.iter
        (fun (m : Machine.t) ->
          let ct = m.Machine.counters in
          if hit then ct.Machine.plan_hits <- ct.Machine.plan_hits + 1
          else ct.Machine.plan_misses <- ct.Machine.plan_misses + 1;
          Machine.record m (Machine.Plan_lookup { hit }))
        machine
    in
    let hit e =
      Mutex.lock s.lock;
      s.s_hits <- s.s_hits + 1;
      (* the entry may have been evicted between probe and lock; its plan
         is still valid, and re-touching a detached entry would corrupt
         the list, so only touch what the current map holds *)
      (match Kmap.find_opt k (Atomic.get s.map) with
      | Some cur when cur == e -> touch s e
      | Some _ | None -> ());
      Mutex.unlock s.lock;
      note true;
      e.e_plan
    in
    let g = Atomic.get s.gen in
    match Kmap.find_opt k (Atomic.get s.map) with
    | Some e when Atomic.get s.gen = g -> hit e
    | _ -> (
      Mutex.lock s.lock;
      match Kmap.find_opt k (Atomic.get s.map) with
      | Some e ->
        s.s_hits <- s.s_hits + 1;
        touch s e;
        Mutex.unlock s.lock;
        note true;
        e.e_plan
      | None ->
        Fun.protect
          ~finally:(fun () -> Mutex.unlock s.lock)
          (fun () ->
            s.s_misses <- s.s_misses + 1;
            note false;
            let p =
              match c.parent with
              | None -> compute ()
              | Some parent -> find parent ~src ~dst compute
            in
            (* precompile both lowerings before publication, so other
               domains that pick the plan out of the shared snapshot never
               race the memos *)
            ignore (step_program p);
            ignore (collective_program p);
            if s.s_size >= s.s_capacity then begin
              evict_lru s;
              Option.iter
                (fun (m : Machine.t) ->
                  m.Machine.counters.Machine.plan_evictions <-
                    m.Machine.counters.Machine.plan_evictions + 1)
                machine
            end;
            let e = { e_key = k; e_plan = p; e_prev = None; e_next = None } in
            push_front s e;
            Atomic.set s.map (Kmap.add k e (Atomic.get s.map));
            Atomic.incr s.gen;
            s.s_size <- s.s_size + 1;
            p))
end

let pp ppf plan =
  Fmt.pf ppf "plan: %d messages, %d moved, %d local" (nb_messages plan)
    (total_moved plan) (local_total plan)
