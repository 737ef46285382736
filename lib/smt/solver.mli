(** Constraint-solving entry point: decides a conjunction of width-1
    constraints and produces a model.

    Two tiers: a propagation quick-path for the
    "invertible term == constant" chains that verification-style contracts
    produce, and full bit-blasting + CDCL for everything else under a
    deterministic conflict budget.

    All accounting is per {!Session} — there is no global mutable solver
    state.  A session belongs to one engine run on one domain; it carries
    the conflict budget, the solve counters, and a bounded LRU cache of
    decided constraint sets keyed on their canonical (sorted-tag multiset)
    form.  Cache hits return the memoized Sat model or Unsat verdict
    without re-blasting; Unknown is never cached.  Exact misses are
    additionally screened against the cached Unsat sets: a query whose
    key contains a cached Unsat set as a sub-multiset is answered Unsat
    without solving (see {!Session.subsumed}). *)

type model = (int, int64) Hashtbl.t
(** Expression variable id -> value. *)

type result =
  | Sat of model
  | Unsat
  | Unknown  (** budget exhausted *)

type stats = {
  st_quick : int;  (** solved by the propagation quick-path *)
  st_blasted : int;  (** reached bit-blasting + CDCL *)
  st_unknown : int;  (** blasted and still undecided at the budget *)
  st_cache_hits : int;
  st_cache_misses : int;
}
(** Immutable snapshot of a session's counters.  [st_quick] and
    [st_blasted] count solver runs, so a cache hit increments neither;
    queries decided trivially (a constant-false constraint) count as
    none of these. *)

val stats_zero : stats
val stats_add : stats -> stats -> stats

module Session : sig
  type t
  (** Per-engine-run solver context: conflict budget + counters + LRU
      verdict cache + one reusable bit-blasting arena (a {!Bitblast.ctx},
      reset before each blasted query, so reuse never changes a verdict
      or model).  Confined to the creating domain; never share a session
      across campaign workers. *)

  val create : ?conflict_budget:int -> ?cache_capacity:int -> unit -> t
  (** [conflict_budget] defaults to 50_000 CDCL conflicts;
      [cache_capacity] (default 512 entries) bounds the LRU —
      [cache_capacity:0] disables caching, which turns every query into
      a recorded miss (useful as an ablation baseline).  Creation also
      compacts the domain's expression intern table if it has outgrown
      its threshold: the session boundary is the only point where that
      cannot degrade sharing within a cached workload. *)

  val conflict_budget : t -> int

  val set_conflict_budget : t -> int -> unit
  (** Retune the session's conflict budget mid-run (the engine's adaptive
      budget uses this).  Sound with respect to the verdict cache: Sat and
      Unsat verdicts are budget-independent, and Unknown — the only
      budget-dependent verdict — is never cached, so a cached answer can
      never contradict what a re-solve under the new budget would say.
      Raises [Invalid_argument] when the budget is < 1. *)

  val stats : t -> stats

  val subsumed : t -> int
  (** Queries answered Unsat by subsumption: the query missed the cache
      exactly but some cached Unsat constraint set was a sub-multiset of
      its key, and a superset of an unsatisfiable conjunction is
      unsatisfiable.  Subsumed answers also count in
      [stats.st_cache_hits] (blasting was avoided); they never refresh
      the matching entry's LRU position and are never themselves
      inserted, keeping cache evolution independent of table iteration
      order (and hence of scheduling-dependent expression tags). *)
end

val check : ?session:Session.t -> ?conflict_budget:int -> Expr.t list -> result
(** Decide the conjunction of constraints.  With [~session], the solve is
    accounted to (and cached in) the session, blasts in the session's
    arena, and the session's budget applies unless [?conflict_budget]
    overrides it.  Without a session, a blasted query gets a fresh
    context; the verdict and model are the same either way.  Cached Sat
    models are returned as fresh tables — callers may mutate them
    freely. *)

val validate_model : Expr.t list -> model -> bool
(** Re-evaluate the constraints under a model (defence in depth: the
    engine refuses to trust unverified seeds). *)
