(** Bit-blasting: translate bitvector expressions to CNF (Tseitin
    encoding) over the {!Sat} solver.  Expressions become arrays of SAT
    literals, least-significant bit first. *)

module Int_tbl : Hashtbl.S with type key = int

type ctx = {
  sat : Sat.t;
  var_bits : int array Int_tbl.t;  (** expression variable id -> literals *)
  cache : int array Int_tbl.t;  (** expression tag -> literals *)
  true_lit : int;  (** a literal pinned true *)
}

val create : unit -> ctx

val reset : ctx -> unit
(** Return the context to exactly the state [create ()] produces (see
    {!Sat.reset}), keeping the capacity of its solver and tables.  Blasting
    the same constraints afterwards yields the same CNF and model as on a
    fresh context. *)

val blast : ctx -> Expr.t -> int array
(** Literals of an expression (cached structurally). *)

val assert_true : ctx -> Expr.t -> unit
(** Assert a width-1 expression. *)

val model_of_var : ctx -> Expr.var -> int64
(** Extract a variable's value from the SAT model (after a [Sat] answer);
    unconstrained variables yield 0. *)
