(* The serve workload: tenants are program streams that block on each
   remap, as [Serve.executor] callers do, so the loop is closed.  One
   generator (the benchmark's main thread) drives 8 tenants with one
   outstanding request each against a service with 1 worker domain.

   Each tenant owns an n = 8192 array on P = 4 with 26 layout versions:
   80% of its requests flip the hot block <-> cyclic pair that every
   tenant shares, 20% go to one of 24 cyclic(k) tail layouts, which keeps
   the plan caches (capacity 16 per tenant and service-wide) missing and
   evicting at a steady rate.  One slice is 8 requests per tenant, 64 in
   all, timed from the first submission to the last completion.

   Checks: every destination is poisoned before its request is submitted
   and must read back element i = i on completion; at the end of every
   slice each tenant's requests are replayed solo through the sequential
   executor on a shadow store, and the tenant's modeled counters must
   equal the shadow's (the comparison [hpfc serve --check] makes).
   Yardstick: the two-domain [Pair] probe. *)

module Serve = Hpfc_serve.Serve
module Request = Hpfc_serve.Request
module Store = Hpfc_runtime.Store
module Machine = Hpfc_runtime.Machine
module Redist = Hpfc_runtime.Redist
module Buf = Hpfc_runtime.Buf
module Layout = Hpfc_mapping.Layout
module Mapping = Hpfc_mapping.Mapping
module Dist = Hpfc_mapping.Dist
module Procs = Hpfc_mapping.Procs

let tenants = 8
let n = 8192
let nprocs = 4
let tail = 24
let per_slice = 8
let capacity = 16

let layouts () =
  let procs = Procs.linear "P" nprocs in
  let mk d =
    Layout.of_mapping ~extents:[| n |]
      (Mapping.direct ~array_name:"a" ~extents:[| n |] ~dist:[| d |] ~procs)
  in
  Array.init (2 + tail) (fun v ->
      match v with
      | 0 -> mk Dist.block
      | 1 -> mk Dist.cyclic
      | v -> mk (Dist.cyclic_sized v))

let new_store ?plans () =
  let m = Machine.create ~nprocs ~sched:Machine.Stepped () in
  let s = Store.create ?plans m in
  let ls = layouts () in
  let d =
    Store.add_descriptor s ~name:"a" ~extents:[| n |]
      ~nb_versions:(Array.length ls) ()
  in
  Array.iteri (fun v l -> Store.alloc s d v l) ls;
  d.Store.status <- Some 0;
  Store.set_live s d 0 true;
  Store.fill_copy (Store.get_copy d 0) float_of_int;
  (s, d)

type tenant = {
  id : int;
  store : Store.t;
  d : Store.descriptor;
  mutable cur : int;
  rng : Random.State.t;
  shadow : Store.t;
  sd : Store.descriptor;
  mutable pending : (int * int) list;  (** (src, dst) to replay, newest first *)
}

(* The tenant's next destination version. *)
let next t =
  if Random.State.int t.rng 10 < 8 then if t.cur = 0 then 1 else 0
  else
    let v = 2 + Random.State.int t.rng tail in
    if v = t.cur then 0 else v

let buffer d v =
  match (Store.get_copy d v).Store.payload with
  | Store.Global g -> g
  | Store.Locals _ -> invalid_arg "Wl_serve: canonical stores only"

let expected = lazy (Buf.of_array (Array.init n float_of_int))

let intact d v =
  let e = Lazy.force expected and g = buffer d v in
  let ok = ref true in
  for k = 0 to n - 1 do
    if Buf.get g k <> Buf.get e k then ok := false
  done;
  !ok

let scrubbed (m : Machine.t) =
  let c = Machine.snapshot_counters m in
  c.Machine.wall_time <- 0.0;
  c.Machine.pool_hits <- 0;
  c.Machine.pool_misses <- 0;
  c.Machine.async_completions <- 0;
  c.Machine.fused_remaps <- 0;
  c.Machine.pool_lease_peak <- 0;
  c

(* Wait until at least one of [reqs] is done; returns the done ones. *)
let await_any svc reqs =
  Mutex.lock svc.Serve.lock;
  let done_ () =
    List.filter (fun (_, r) -> r.Request.state = Request.Done) reqs
  in
  let rec go () =
    match done_ () with
    | [] ->
      Condition.wait svc.Serve.completion svc.Serve.lock;
      go ()
    | ds -> ds
  in
  let ds = go () in
  Mutex.unlock svc.Serve.lock;
  ds

(* One slice: [per_slice] requests per tenant, one outstanding each.
   Returns the number of requests whose destination read back wrong. *)
let slice svc ts =
  let left = Array.make tenants per_slice in
  let bad = ref 0 in
  let submit t =
    let dst = next t in
    Buf.fill (buffer t.d dst) Float.nan;
    left.(t.id) <- left.(t.id) - 1;
    ( t,
      Serve.submit_remap svc ~tenant:t.id ~store:t.store ~array:"a" ~src:t.cur
        ~dst,
      dst )
  in
  let out = ref (Array.to_list (Array.map submit ts)) in
  while !out <> [] do
    let ds =
      await_any svc (List.map (fun (t, r, dst) -> ((t, dst), r)) !out)
    in
    List.iter
      (fun ((t, dst), r) ->
        out := List.filter (fun (_, r', _) -> r' != r) !out;
        t.pending <- (t.cur, dst) :: t.pending;
        t.cur <- dst;
        t.d.Store.status <- Some dst;
        if not (intact t.d dst) then incr bad;
        if left.(t.id) > 0 then out := submit t :: !out)
      ds
  done;
  !bad

(* Solo replay of every tenant's slice through the sequential executor;
   returns the number of requests of tenants whose counters diverge. *)
let replay ts =
  Array.fold_left
    (fun bad t ->
      List.iter
        (fun (src, dst) ->
          Store.copy_version t.shadow t.sd ~src ~dst ~with_data:true;
          t.sd.Store.status <- Some dst)
        (List.rev t.pending);
      let k = List.length t.pending in
      t.pending <- [];
      if
        scrubbed t.store.Store.machine = scrubbed t.shadow.Store.machine
        && intact t.sd t.cur
      then bad
      else bad + k)
    0 ts

let service () =
  Serve.create ~workers:1 ~cache_capacity:capacity ~tenants ()

(* The tenants of [svc]; [shadow:false] (a set-up sample) skips the
   benchmark's own solo-replay stores. *)
let tenants_of ?(shadow = true) ~seed svc =
  Array.init tenants (fun id ->
      let store, d = new_store ~plans:(Serve.tenant_cache svc id) () in
      let shadow, sd =
        if shadow then new_store ~plans:(Redist.Plan_cache.create ~capacity ()) ()
        else (store, d)
      in
      {
        id;
        store;
        d;
        cur = 0;
        rng = Random.State.make [| seed; id |];
        shadow;
        sd;
        pending = [];
      })

(* Slices run at build time, before any timing: the plan-cache counters
   after them repeat exactly for a given seed. *)
let warm_slices = 8

let make ~seed () =
  let svc = service () in
  let ts = tenants_of ~seed svc in
  let warm_bad = ref 0 in
  for _ = 1 to warm_slices do
    warm_bad := !warm_bad + slice svc ts;
    warm_bad := !warm_bad + replay ts
  done;
  let tenant_caches f =
    Array.fold_left (fun a t -> a + f (Serve.tenant_cache svc t.id)) 0 ts
  in
  let warm_hits = tenant_caches Redist.Plan_cache.hits
  and warm_misses = tenant_caches Redist.Plan_cache.misses
  and warm_evictions = tenant_caches Redist.Plan_cache.evictions in
  let last = ref 0 in
  let cls =
    Harness.cls ~group:"req" ~reps:1 ~units:(tenants * per_slice)
      ~check:(fun () ->
        let wb = !warm_bad in
        warm_bad := 0;
        !last + replay ts + wb)
      "req"
      (fun () -> last := slice svc ts)
  in
  let cold_setup () =
    let s = service () in
    Fun.protect
      ~finally:(fun () -> ignore (Serve.shutdown s : Serve.stats))
      (fun () -> ignore (slice s (tenants_of ~shadow:false ~seed s) : int))
  in
  let layers () =
    let st = Serve.stats svc in
    let lat = Array.to_list st.Serve.latencies in
    let shared = Serve.shared_cache svc in
    let sh = Redist.Plan_cache.hits shared
    and sm = Redist.Plan_cache.misses shared in
    let fi = float_of_int in
    Harness.
      [
        metric "serve.lat_p50_ms" "ms" (Stats.percentile 0.5 lat *. 1e3);
        metric "serve.lat_p99_ms" "ms" (Stats.percentile 0.99 lat *. 1e3);
        metric "serve.lat_samples" "count" (fi (List.length lat));
        metric "serve.fused_share" "ratio"
          (fi st.Serve.fused_members /. fi (max 1 st.Serve.requests));
        metric "serve.batch_size" "count"
          (fi st.Serve.requests /. fi (max 1 st.Serve.batches));
        metric "serve.plan_hit_ratio" "ratio" (fi sh /. fi (max 1 (sh + sm)));
        metric "plan.hit_ratio" "ratio"
          (fi warm_hits /. fi (max 1 (warm_hits + warm_misses)));
        metric "plan.misses" "count" (fi warm_misses);
        metric "plan.evictions" "count" (fi warm_evictions);
      ]
  in
  {
    Harness.probe = Probes.Pair;
    classes = [ cls ];
    cold_setup;
    (* a set-up is short and noisy (page faults of fresh stores, a worker
       domain's start): take many *)
    setup_probe = Probes.Alloc;
    nsetup = 48;
    layers;
    close = (fun () -> ignore (Serve.shutdown svc : Serve.stats));
  }
