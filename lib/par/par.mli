(** Domain-based parallel execution primitives: a worker pool over an
    atomic index.  Two layers use it, both with large independent work
    items: per-procedure lowering and SSA construction
    ([Context.lower_all], [Context.build_ssa]), and the harness's
    per-program fan-out.  The flow-sensitive PCG traversal itself is a
    sequential loop ([Fs_icp.solve]).

    Every combinator takes an explicit [jobs] count.  [jobs <= 1] runs the
    work sequentially in the calling domain, in the canonical order — the
    deterministic reference path the parallel paths must reproduce.  All
    result-producing combinators are deterministic by construction: results
    land in slots keyed by input index, never by completion order. *)

(** Strict job-count parsing (shared by [FSICP_JOBS] and the CLI's
    [--jobs]): the trimmed string must be an integer ≥ 1.  Anything else —
    zero, negatives, garbage — is an [Error] with a message naming the
    offending value; there is deliberately no silent fallback. *)
val parse_jobs : string -> (int, string) result

(** Number of workers to use by default: the [FSICP_JOBS] environment
    variable when set, otherwise [Domain.recommended_domain_count ()].
    @raise Invalid_argument when [FSICP_JOBS] is set but not a positive
    integer (see {!parse_jobs}) *)
val default_jobs : unit -> int

(** [parallel_init ~jobs n f] is [Array.init n f] computed by up to [jobs]
    domains.  [f] must be safe to call concurrently on distinct indices.
    The first exception raised by any [f i] is re-raised after all workers
    stop.  [label] wraps each [f i] in a detached {!Fsicp_trace.Trace}
    span named [label] carrying the index, on the sequential fast path
    too. *)
val parallel_init : ?label:string -> jobs:int -> int -> (int -> 'a) -> 'a array

(** [map_list ~jobs f l] is [List.map f l]; list order is preserved. *)
val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** Per-domain epoch-stamped scratch arena for flat analysis kernels.

    One arena lives in each domain's local storage ({!Domain.DLS}), so a
    kernel gets private scratch with no locking on whichever domain runs it
    — the calling domain, or a pool worker when the harness fans programs
    out — and near-zero allocation once the arena has grown to the largest
    procedure it has seen.  The arena hands out two kinds of scratch:

    - {b mark regions} — ranges of an int-stamp array used as bitsets.  A
      slot is "set" iff its stamp equals the arena's current epoch, so
      {!reset} clears every region of every size in O(1) by bumping the
      epoch instead of zeroing memory.
    - {b int stacks} — two growable LIFO worklists ([stack_a]/[stack_b])
      whose backing arrays persist across runs.

    Protocol: call [reset], then [reserve_marks] for every region the run
    needs {e before} marking anything (growth re-zeroes the stamp array but
    preserves marks already set this epoch), then run the kernel.  Arenas
    are single-kernel scratch: results that outlive the run must be copied
    out (or allocated normally). *)
module Arena : sig
  type t
  type stack

  val get : unit -> t
  (** The calling domain's arena. *)

  val reset : t -> unit
  (** O(1) wipe: bumps the epoch and releases all mark regions and stacks. *)

  val reserve_marks : t -> int -> int
  (** [reserve_marks t n] returns the base index of a fresh all-clear region
      of [n] mark slots; address slot [i] of the region as [base + i]. *)

  val mark : t -> int -> unit
  val unmark : t -> int -> unit
  val marked : t -> int -> bool

  val stack_a : t -> stack
  val stack_b : t -> stack
  (** Two independent reusable worklists, emptied by {!reset}. *)

  val push : stack -> int -> unit
  val is_empty : stack -> bool

  val pop : stack -> int
  (** Undefined on an empty stack; guard with {!is_empty}. *)
end
