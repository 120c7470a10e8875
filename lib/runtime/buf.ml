(* Payload buffers: one C-layout float64 Bigarray.Array1 type shared by
   store payloads, communication endpoints, staging pools, parallel
   packets and the scalar oracle.  Flat and unboxed, so segment copies
   are memcpy/memmove and sub-views alias without copying — the
   representation zero-copy interop (mmap, C, devices) needs. *)

module A1 = Bigarray.Array1

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

(* Bigarrays start uninitialized; payloads must read as zeros. *)
let create n : t =
  let b = A1.create Bigarray.float64 Bigarray.c_layout (max 0 n) in
  A1.fill b 0.0;
  b

let length (t : t) = A1.dim t
let get (t : t) i = A1.get t i
let set (t : t) i v = A1.set t i v
let fill (t : t) v = A1.fill t v
let sub (t : t) pos len : t = A1.sub t pos len

(* [A1.blit] is memmove on same-kind bigarrays, so copying between two
   views of one block is correct in either overlap direction. *)
let blit (src : t) spos (dst : t) dpos len =
  if len > 0 then A1.blit (A1.sub src spos len) (A1.sub dst dpos len)

(* Segment length from which [copy_run] hands each segment to [blit]
   (memmove) instead of an element loop: below it the two sub views and
   the C call cost more than the loop saves.  Measured on x86-64 with
   OCaml 5.1 (no flambda), copying in segments of [len]: out of cache
   (2^20 elements) the loop wins 1.3x at 128, breaks even at 256 and
   loses 1.3x from 512 on; in cache (5e4 elements) it breaks even near
   150.  The perfbench remap classes with 64- and 79-element segments
   time the same under thresholds of 128 and 256. *)
let blit_threshold = 256

(* The lowest and highest index [count] segments of [len] elements at
   [pos], [pos + stride], ... touch, whatever the stride's sign. *)
let span_lo pos stride count =
  if stride < 0 then pos + ((count - 1) * stride) else pos

let span_hi pos stride len count =
  (if stride < 0 then pos else pos + ((count - 1) * stride)) + len - 1

let check_span (b : t) pos stride len count =
  if span_lo pos stride count < 0 || span_hi pos stride len count >= A1.dim b
  then invalid_arg "Buf.copy_run"

(* Same-wrapper copy whose spans intersect: every source element is
   read into a temporary before any destination element is written —
   memmove's result, for any strides.  Writes land in segment order,
   as on the disjoint path. *)
let copy_run_aliased (b : t) spos sstride dpos dstride len count =
  let tmp = A1.create Bigarray.float64 Bigarray.c_layout (len * count) in
  for i = 0 to count - 1 do
    let s = spos + (i * sstride) in
    for j = 0 to len - 1 do
      A1.unsafe_set tmp ((i * len) + j) (A1.unsafe_get b (s + j))
    done
  done;
  for i = 0 to count - 1 do
    let d = dpos + (i * dstride) in
    for j = 0 to len - 1 do
      A1.unsafe_set b (d + j) (A1.unsafe_get tmp ((i * len) + j))
    done
  done

(* Both spans are range-checked before the first write, so the loops
   below run unchecked.  Distinct wrappers are assumed disjoint: the only
   aliasing a wrapper comparison can see is [src == dst]. *)
let copy_run (src : t) spos sstride (dst : t) dpos dstride len count =
  if len > 0 && count > 0 then begin
    check_span src spos sstride len count;
    check_span dst dpos dstride len count;
    if
      src == dst
      && span_lo spos sstride count <= span_hi dpos dstride len count
      && span_lo dpos dstride count <= span_hi spos sstride len count
    then copy_run_aliased src spos sstride dpos dstride len count
    else if len = 1 then
      for i = 0 to count - 1 do
        A1.unsafe_set dst
          (dpos + (i * dstride))
          (A1.unsafe_get src (spos + (i * sstride)))
      done
    else if len < blit_threshold then
      for i = 0 to count - 1 do
        let s = spos + (i * sstride) and d = dpos + (i * dstride) in
        for j = 0 to len - 1 do
          A1.unsafe_set dst (d + j) (A1.unsafe_get src (s + j))
        done
      done
    else
      for i = 0 to count - 1 do
        blit src (spos + (i * sstride)) dst (dpos + (i * dstride)) len
      done
  end

let of_array (a : float array) : t =
  A1.of_array Bigarray.float64 Bigarray.c_layout a

let to_array (t : t) = Array.init (length t) (A1.get t)
