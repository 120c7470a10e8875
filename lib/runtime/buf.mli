(** Payload buffers: the one storage type every layer moves floats
    through — store payloads, communication endpoints, staging buffers,
    parallel-backend packets and the scalar oracle all carry [Buf.t].

    Backed by a C-layout float64 {!Bigarray.Array1}, so a buffer is a
    flat, unboxed, GC-pinned block: segment copies compile to
    [memcpy]/[memmove], sub-views alias without copying, and the same
    representation is shareable with C, mmap'd files or device runtimes
    later.  The type is exposed (not abstract) so interop code can hand
    a raw bigarray straight to the runtime. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A zero-filled buffer of [max 0 n] elements (bigarrays start
    uninitialized; payload semantics require zeros). *)
val create : int -> t

val length : t -> int
val get : t -> int -> float
val set : t -> int -> float -> unit
val fill : t -> float -> unit

(** [sub t pos len] is an aliasing view of [t.(pos .. pos+len-1)] — no
    copy; writes through the view are visible in [t].  Aliasing cannot
    be detected afterwards (two views of one block are distinct
    wrappers), which is why {!blit} below is unconditionally
    overlap-safe. *)
val sub : t -> int -> int -> t

(** [blit src spos dst dpos len] copies with [memmove] semantics: always
    correct even when [src] and [dst] alias the same storage and the
    ranges overlap in either direction.  {!copy_run} hands long
    segments to it. *)
val blit : t -> int -> t -> int -> int -> unit

(** [copy_run src spos sstride dst dpos dstride len count] copies
    [count] segments of [len] elements: segment [i] goes from
    [src.(spos + i * sstride ..)] to [dst.(dpos + i * dstride ..)], in
    order of [i].  Strides may be zero or negative.  Before any write it
    checks the lowest and highest index both sides touch and raises
    [Invalid_argument] if either leaves its buffer; the copy itself then
    runs unchecked — one loop for unit segments, a nested loop for short
    ones, {!blit} for long ones.  Does nothing when [len <= 0] or
    [count <= 0].

    Distinct wrappers are assumed disjoint.  When [src == dst] and the
    two spans intersect, every source element is read before any write
    (memmove semantics, in either overlap direction). *)
val copy_run : t -> int -> int -> t -> int -> int -> int -> int -> unit

val of_array : float array -> t
val to_array : t -> float array
