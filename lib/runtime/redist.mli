(** Redistribution engine: the communication plan between two layouts of
    the same array, as messages carrying their payloads.

    Every message carries a {!box}: one compressed periodic interval set
    per array dimension whose cross product is the exchanged element set
    — the strided sections an SPMD runtime packs into a send buffer.

    Two algorithms compute the same plan: {!plan_naive} walks every
    element (the oracle, cross-checking each pair's box against the
    walked count); {!plan_intervals} works per dimension on compressed
    periodic ownership sets, so its cost is O(grid^2 * periods) and
    independent of the array extent — the efficient block-cyclic
    redistribution idea of Prylli & Tourancheau.  Replicated and
    constant-aligned grid dimensions only constrain which coordinates
    participate (canonical sender, all-replica receivers), so both
    engines handle every layout. *)

(** Per array dimension, the owned-intersection set in the compressed
    periodic representation ({!Hpfc_mapping.Ivset.t}); kept
    unmaterialized so plans stay extent-independent. *)
type box = Hpfc_mapping.Ivset.t array

(** Number of elements in the box (product of per-dimension cardinals). *)
val box_size : box -> int

(** One compiled copy shape in the flat address spaces of the source and
    destination copies: [r_count] segments of [r_len] consecutive
    elements each, the i-th reading at [r_src + i * r_src_stride] and
    writing at [r_dst + i * r_dst_stride].  A plain contiguous run has
    [r_count = 1] (strides 0). *)
type run = {
  r_src : int;
  r_dst : int;
  r_len : int;
  r_count : int;
  r_src_stride : int;
  r_dst_stride : int;
}

(** How a copy's flat storage is addressed — what box-to-run compilation
    needs to know about an endpoint: [Row_major extents] is one global
    row-major array (canonical backend, addressed by
    [global_linear_index]); [Owner_local layout] is one buffer per rank,
    row-major over the rank's local extents (distributed backend,
    addressed by [local_linear_index]). *)
type addressing =
  | Row_major of int array  (** global extents *)
  | Owner_local of Hpfc_mapping.Layout.t

(** How a message's compiled runs move data — the staging-vs-direct
    decision, made once per memoized message by {!message_datapath}:
    [Direct] runs may be copied payload to payload with no staging
    buffer (self-messages, whose two buffers live on one rank, and
    messages between globally addressed [Row_major] endpoints, whose
    buffers are rank-invariant); [Staged] runs must pack through a
    staging buffer the way a real SPMD send does. *)
type datapath = Direct of run array | Staged of run array

type message = {
  m_from : int;  (** sender, linear rank in the source grid *)
  m_to : int;  (** receiver, linear rank in the target grid *)
  m_count : int;  (** elements, [= box_size m_box] *)
  m_box : box;
  m_paths : (int * datapath) list Atomic.t;
      (** compiled datapaths (runs plus the staging-vs-direct decision)
          memoized per (src, dst) addressing-kind key, next to the
          plan's memoized step program.  Atomically published, so a
          domain that finds the memo filled observes fully built run
          arrays even when plans are shared through the sharded
          {!Plan_cache}; parallel executors still precompile on the
          coordinator (see {!message_datapath}) before sharing the
          message with worker domains. *)
}

(** A slice of a message's staged payload: elements
    [sl_off, sl_off + sl_len) of its row-major box order, which is
    exactly the staging-buffer order of the pack walk — a contiguous
    window of the send buffer (the dynamic-slice primitive of the
    collective lowering). *)
type slice = { sl_msg : message; sl_off : int; sl_len : int }

(** One collective phase: a contention-free set of slices (distinct
    senders, distinct receivers, at most one slice per message) within
    the lowering's staging budget. *)
type phase = slice list

(** Which portable collective a plan's phase program realizes — a cost
    tag selecting the phase alpha, not a correctness property. *)
type phase_kind = All_to_all | All_gather | Scatter

(** A plan's collective lowering: ring-shift-classed, budget-packed
    phases.  [c_slice_cap] (O(volume / P^2)) bounds any single slice;
    [c_phase_cap] bounds any phase's volume by the point-to-point step
    program's peak step volume, so the collective peak staging volume
    never exceeds the point-to-point one. *)
type collective = {
  c_kind : phase_kind;
  c_slice_cap : int;
  c_phase_cap : int;
  c_phases : phase list;
}

type plan = {
  moves : message list;
      (** cross-processor messages, [m_from <> m_to], sorted by
          (sender, receiver) *)
  locals : message list;  (** on-processor moves, [m_from = m_to] *)
  nprocs_src : int;
  nprocs_dst : int;
  mutable sprog : step list option;  (** memoized step program *)
  mutable cprog : collective option;  (** memoized collective lowering *)
}

(** A contention-free communication step: messages of the plan in which
    no processor sends twice and no processor receives twice (one-port,
    full-duplex). *)
and step = message list

(** The cross-processor messages as (sender, receiver, count) triples. *)
val pairs : plan -> (int * int * int) list

(** The on-processor moves as (rank, rank, count) triples. *)
val local_pairs : plan -> (int * int * int) list

(** Total elements crossing processors. *)
val total_moved : plan -> int

(** Total elements staying on their processor. *)
val local_total : plan -> int

(** Number of cross-processor messages. *)
val nb_messages : plan -> int

(** Critical-path time under the cost model: max over processors of the
    send-side and receive-side alpha-beta cost. *)
val modeled_time : Machine.cost_model -> plan -> float

(** Total elements in flight within one step. *)
val step_volume : step -> int

(** Max {!step_volume} over a decomposition — a peak-memory proxy for
    communication staging buffers. *)
val peak_step_volume : step list -> int

(** Greedy bipartite edge coloring of the plan's messages, largest first:
    a pure [plan -> step program] transformer.  The steps partition
    [plan.moves] exactly, each step is contention-free, and at most
    [2 * max degree - 1] steps are used. *)
val steps : plan -> step list

(** The plan's step program, memoized in the plan (cached plans recur on
    every loop iteration; the coloring is paid once).  Shared by the cost
    model and the communication executor. *)
val step_program : plan -> step list

(** A step's modeled cost: [alpha + beta * slowest message]. *)
val step_time : Machine.cost_model -> step -> float

(** Stepped time: each step costs its slowest message, steps are
    serialized.  Always >= the burst critical path {!modeled_time}. *)
val modeled_time_stepped : Machine.cost_model -> plan -> float

(** Same, over an already computed decomposition. *)
val modeled_time_of_steps : Machine.cost_model -> step list -> float

(** Total elements in flight within one collective phase. *)
val phase_volume : phase -> int

(** Max {!phase_volume} over a phase list. *)
val peak_phase_volume : phase list -> int

(** The plan's collective lowering, memoized like {!step_program} (and
    precompiled by {!Plan_cache.find} before publication).  Phases
    partition every cross-processor message's payload exactly; each
    phase is contention-free; no phase's volume exceeds the
    point-to-point peak step volume. *)
val collective_program : plan -> collective

(** Build the lowering without touching the memo (exposed for tests). *)
val collective_of_plan : plan -> collective

(** The per-kind phase startup cost from the machine's cost model. *)
val phase_alpha : Machine.cost_model -> phase_kind -> float

(** A phase's modeled cost, mirroring {!step_time}: per-kind alpha plus
    [coll_beta * slowest slice]. *)
val phase_time : Machine.cost_model -> phase_kind -> phase -> float

(** Collective time: phases serialized, each costing {!phase_time}. *)
val modeled_time_of_phases : Machine.cost_model -> collective -> float

(** Same, from the plan through the memoized lowering. *)
val modeled_time_collective : Machine.cost_model -> plan -> float

val nb_phases : collective -> int

(** Total slices across all phases (>= [nb_messages] on staged plans). *)
val nb_slices : collective -> int

(** Max phase volume of the memoized lowering — the collective analogue
    of [peak_step_volume (step_program plan)]. *)
val peak_collective_volume : plan -> int

val phase_kind_name : phase_kind -> string

(** Iterate all index vectors of an extent vector (exposed for tests). *)
val iter_indices : int array -> (int array -> unit) -> unit

(** Per-element oracle; boxes attached from the interval machinery and
    asserted against the walked counts. *)
val plan_naive : src:Hpfc_mapping.Layout.t -> dst:Hpfc_mapping.Layout.t -> plan

(** Periodic-interval engine; identical plans (qcheck-verified). *)
val plan_intervals :
  src:Hpfc_mapping.Layout.t -> dst:Hpfc_mapping.Layout.t -> plan

(** Iterate every index vector of a box in row-major order — the packing
    order of the communication executor.  Materializes the per-dimension
    sets, so cost is proportional to the elements moved. *)
val iter_box : box -> (int array -> unit) -> unit

(** Lower a message's box into runs over the two flat address spaces, in
    row-major box order (exactly {!iter_box}'s packing order).  Every
    innermost interval is contiguous in both spaces — all its indices are
    owned, so dense local addresses advance by one per element just like
    global ones — and segments are then compressed at the offset level:
    exactly adjacent segments concatenate, and equal-length segments with
    constant src and dst deltas collapse into one strided run (a
    cyclic(k) innermost dimension becomes a single run of k-element
    segments).  The run total always equals [m_count].  Memoized on the
    message per addressing-kind pair; call once on the coordinator before
    handing the message to concurrent workers. *)
val message_runs : src:addressing -> dst:addressing -> message -> run array

(** The message's compiled runs together with its staging-vs-direct
    decision ({!datapath}), memoized like {!message_runs} (both share
    the [m_paths] memo). *)
val message_datapath : src:addressing -> dst:addressing -> message -> datapath

(** Total number of contiguous segments a run array copies
    (sum of [r_count]). *)
val nb_run_segments : run array -> int

(** {!iter_box} restricted to positions [off, off + len) of the
    row-major packing walk — the scalar oracle's view of one slice. *)
val iter_box_slice : box -> off:int -> len:int -> (int array -> unit) -> unit

(** Row-major strides of an extents vector (last dimension stride 1). *)
val row_major_strides : int array -> int array

val pp_run : Format.formatter -> run -> unit
val pp_box : Format.formatter -> box -> unit
val pp_message : Format.formatter -> message -> unit

(** Every cross-processor message of the plan, one per line. *)
val pp_moves : Format.formatter -> plan -> unit

(** The step decomposition, one step header plus its messages per step. *)
val pp_steps : Format.formatter -> plan -> unit

(** The collective phase program, one phase header plus its slices per
    phase. *)
val pp_phases : Format.formatter -> plan -> unit

(** moved + local: the number of (element, destination-copy) pairs. *)
val covered : plan -> int

(** Same (sender, receiver, count) multisets on both the cross-processor
    and the on-processor side. *)
val equal : plan -> plan -> bool

(** Memoized plans keyed by canonicalized (source layout, target layout,
    extents): loop-carried remappings between the same layout pair pay
    planning cost once.  The key keeps exactly what
    {!Hpfc_mapping.Layout.equal} compares (grid names are stripped).

    Safe for concurrent use from multiple domains: keys hash-stripe over
    mutex-protected shards, each an exact O(1) LRU (intrusive recency
    list) over its slice of the capacity; hits probe an atomically
    published snapshot without the lock (a generation stamp certifies
    the probe) and misses compute under the shard lock, so one canonical
    key is never planned twice within a shard. *)
module Plan_cache : sig
  type t

  (** 512 — generous next to the handful of layout pairs a kernel cycles
      through, small next to an unbounded multi-kernel run. *)
  val default_capacity : int

  (** The cache holds at most [capacity] plans (>= 1, clamped); beyond
      that the least recently used plan of the full shard is evicted.
      [capacity] defaults to the HPFC_PLAN_CACHE environment variable
      when set to a positive integer, else {!default_capacity}.
      [shards] (default: one per 64 plans of capacity, at most 8, so
      small caches keep one globally exact LRU) stripes the capacity;
      [parent] chains a second cache level — misses compute through the
      parent, so plan construction is shared across caches (the
      multi-tenant service gives every tenant a private cache with
      solo-identical accounting over one shared parent). *)
  val create : ?capacity:int -> ?shards:int -> ?parent:t -> unit -> t

  (** Cached plans currently held. *)
  val size : t -> int

  val capacity : t -> int

  (** Number of lock stripes the capacity is split over. *)
  val nshards : t -> int

  (** Lifetime hit/miss/eviction totals of this cache (machine counters
      are bumped per find when given, and reset independently). *)
  val hits : t -> int

  val misses : t -> int
  val evictions : t -> int

  (** Drop all cached plans and zero the lifetime totals. *)
  val clear : t -> unit

  (** [find c ?machine ~src ~dst compute] returns the cached plan for the
      canonicalized layout pair, or computes, stores and returns it,
      evicting the least recently used plan when the capacity is reached.
      Bumps [plan_hits]/[plan_misses]/[plan_evictions] and records a
      {!Machine.event.Plan_lookup} trace event on [machine] when given. *)
  val find :
    t ->
    ?machine:Machine.t ->
    src:Hpfc_mapping.Layout.t ->
    dst:Hpfc_mapping.Layout.t ->
    (unit -> plan) ->
    plan
end

val pp : Format.formatter -> plan -> unit
