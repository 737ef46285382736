(* Tests for the SMT substrate: SAT solver, expression semantics,
   bit-blasting correctness against the evaluator, and the two-tier
   solver. *)

open Wasai_smt

(* ------------------------------------------------------------------ *)
(* SAT                                                                  *)
(* ------------------------------------------------------------------ *)

let lit v ~pos = Sat.lit_of_var v ~positive:pos

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  ignore (Sat.add_clause s [ lit a ~pos:true; lit b ~pos:true ]);
  ignore (Sat.add_clause s [ lit a ~pos:false ]);
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "a false" false (Sat.model_value s a);
  Alcotest.(check bool) "b true" true (Sat.model_value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  ignore (Sat.add_clause s [ lit a ~pos:true; lit b ~pos:true ]);
  ignore (Sat.add_clause s [ lit a ~pos:true; lit b ~pos:false ]);
  ignore (Sat.add_clause s [ lit a ~pos:false; lit b ~pos:true ]);
  ignore (Sat.add_clause s [ lit a ~pos:false; lit b ~pos:false ]);
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

(* Pigeonhole principle PHP(n+1, n): always unsat, needs real conflict
   analysis to finish quickly. *)
let pigeonhole n =
  let s = Sat.create () in
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Sat.new_var s)) in
  (* Every pigeon in some hole. *)
  for p = 0 to n do
    ignore
      (Sat.add_clause s (List.init n (fun h -> lit v.(p).(h) ~pos:true)))
  done;
  (* No two pigeons share a hole. *)
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        ignore
          (Sat.add_clause s [ lit v.(p1).(h) ~pos:false; lit v.(p2).(h) ~pos:false ])
      done
    done
  done;
  Sat.solve s

let test_sat_pigeonhole () =
  Alcotest.(check bool) "php(5,4) unsat" true (pigeonhole 4 = Sat.Unsat);
  Alcotest.(check bool) "php(7,6) unsat" true (pigeonhole 6 = Sat.Unsat)

(* Random 3-SAT near the phase transition: whatever the answer, a SAT
   answer must come with a genuine model. *)
let qcheck_random_3sat =
  QCheck.Test.make ~name:"random 3-SAT models are genuine" ~count:60
    QCheck.(pair (int_bound 1000000) (int_range 8 20))
    (fun (seed, nv) ->
      let rng = Wasai_support.Rand.create (Int64.of_int seed) in
      let s = Sat.create () in
      let vars = Array.init nv (fun _ -> Sat.new_var s) in
      let ncl = int_of_float (4.0 *. float_of_int nv) in
      let clauses = ref [] in
      for _ = 1 to ncl do
        let cl =
          List.init 3 (fun _ ->
              lit vars.(Wasai_support.Rand.int rng nv)
                ~pos:(Wasai_support.Rand.bool rng))
        in
        clauses := cl :: !clauses;
        ignore (Sat.add_clause s cl)
      done;
      match Sat.solve s with
      | Sat.Unsat | Sat.Unknown -> true
      | Sat.Sat ->
          List.for_all
            (fun cl ->
              List.exists
                (fun l ->
                  let v = Sat.var_of_lit l in
                  let positive = l land 1 = 0 in
                  Sat.model_value s v = positive)
                cl)
            !clauses)

(* A reset instance must behave exactly like a fresh one: same verdict,
   same model bits and same conflict count on the same clauses, whatever
   the instance held before (here another random instance, solved to
   completion or stopped at a conflict budget of 1). *)
let random_3sat rng nv =
  List.init
    (int_of_float (4.2 *. float_of_int nv))
    (fun _ ->
      List.init 3 (fun _ ->
          lit (Wasai_support.Rand.int rng nv) ~pos:(Wasai_support.Rand.bool rng)))

let load_3sat s nv clauses =
  for _ = 1 to nv do
    ignore (Sat.new_var s)
  done;
  List.iter (fun cl -> ignore (Sat.add_clause s cl)) clauses

let qcheck_sat_reset_is_create =
  QCheck.Test.make ~name:"Sat.reset = Sat.create on random 3-SAT" ~count:60
    QCheck.(triple (int_bound 1000000) (int_range 8 40) (int_range 8 60))
    (fun (seed, nv, prior_nv) ->
      let rng = Wasai_support.Rand.create (Int64.of_int seed) in
      let prior = random_3sat rng prior_nv in
      let clauses = random_3sat rng nv in
      let outcome s budget =
        let r = Sat.solve ~conflict_budget:budget s in
        (r, List.init nv (Sat.model_value s), Sat.num_conflicts s)
      in
      let fresh = Sat.create () in
      load_3sat fresh nv clauses;
      let reused = Sat.create () in
      load_3sat reused prior_nv prior;
      ignore (Sat.solve ~conflict_budget:(1 + (seed mod 2)) reused);
      Sat.reset reused;
      load_3sat reused nv clauses;
      Sat.num_vars reused = Sat.num_vars fresh
      && Sat.num_clauses reused = Sat.num_clauses fresh
      && outcome fresh 200_000 = outcome reused 200_000)

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

let test_expr_fold () =
  let open Expr in
  Alcotest.(check bool) "const fold add" true
    (binop Add (const 32 7L) (const 32 5L) = const 32 12L);
  Alcotest.(check bool) "mask wraps" true
    (binop Add (const 8 255L) (const 8 1L) = const 8 0L);
  Alcotest.(check bool) "eq fold" true (cmp Eq (const 64 3L) (const 64 3L) = true_);
  let v = var (fresh_var ~name:"x" 64) in
  Alcotest.(check bool) "x + 0 = x" true (binop Add v (const 64 0L) = v);
  Alcotest.(check bool) "x * 0 = 0" true (binop Mul v (const 64 0L) = const 64 0L);
  Alcotest.(check bool) "not not x = x" true (unop Not (unop Not v) = v)

let test_expr_invert_rules () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  (* ((x + 5) == 12) folds to (x == 7). *)
  let e = cmp Eq (binop Add (var x) (const 64 5L)) (const 64 12L) in
  (match e.node with
   | Cmp (Eq, { node = Var v; _ }, { node = Const (_, 7L); _ }) ->
       Alcotest.(check int) "var preserved" x.vid v.vid
   | _ -> Alcotest.failf "unexpected shape: %s" (to_string e));
  (* ((x ^ c) == d) folds to (x == c^d). *)
  let e2 = cmp Eq (binop Xor (const 64 0xFFL) (var x)) (const 64 0x0FL) in
  match e2.node with
  | Cmp (Eq, { node = Var _; _ }, { node = Const (_, 0xF0L); _ }) -> ()
  | _ -> Alcotest.failf "unexpected shape: %s" (to_string e2)

let test_expr_signedness () =
  let open Expr in
  Alcotest.(check int64) "to_signed 8-bit" (-1L) (to_signed 8 255L);
  Alcotest.(check bool) "slt signed" true
    (cmp Slt (const 8 255L) (const 8 1L) = true_);
  Alcotest.(check bool) "ult unsigned" true
    (cmp Ult (const 8 1L) (const 8 255L) = true_)

let test_expr_popcnt_clz () =
  let open Expr in
  Alcotest.(check bool) "popcnt" true (unop Popcnt (const 64 0xF0F0L) = const 64 8L);
  Alcotest.(check bool) "clz 32" true (unop Clz (const 32 1L) = const 32 31L);
  Alcotest.(check bool) "ctz" true (unop Ctz (const 32 8L) = const 32 3L);
  Alcotest.(check bool) "clz 0" true (unop Clz (const 16 0L) = const 16 16L)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                         *)
(* ------------------------------------------------------------------ *)

let test_hashcons_sharing () =
  let open Expr in
  let x = var (fresh_var ~name:"hx" 64) and y = var (fresh_var ~name:"hy" 64) in
  (* Commutative operands are canonically ordered, so both spellings
     intern to the same physical node. *)
  Alcotest.(check bool) "x+y == y+x physically" true
    (binop Add x y == binop Add y x);
  Alcotest.(check bool) "nested rebuilds share" true
    (binop Mul (binop Add x y) x == binop Mul (binop Add y x) x);
  Alcotest.(check bool) "hash agrees across spellings" true
    (hash (binop And x y) = hash (binop And y x));
  Alcotest.(check bool) "equal across spellings" true
    (equal (binop Or x y) (binop Or y x));
  (* Idempotence / annihilation folds. *)
  Alcotest.(check bool) "x & x = x" true (binop And x x == x);
  Alcotest.(check bool) "x | x = x" true (binop Or x x == x);
  Alcotest.(check bool) "x ^ x = 0" true (binop Xor x x == const 64 0L);
  Alcotest.(check bool) "x - x = 0" true (binop Sub x x == const 64 0L);
  Alcotest.(check bool) "x <= x reflexive" true (cmp Ule x x == true_);
  Alcotest.(check bool) "x < x irreflexive" true (cmp Ult x x == false_);
  Alcotest.(check bool) "double negation" true (unop Not (unop Not x) == x)

(* Property: building an expression through the interning, normalizing
   smart constructors never changes its concrete semantics.  The naive
   side is a plain ADT tree evaluated directly with [eval_unop] & co.;
   the hash-consed side goes through every rewrite rule and the memoized
   DAG evaluator. *)
type ntree =
  | N_x
  | N_y
  | N_const of int64
  | N_unop of Expr.unop * ntree
  | N_binop of Expr.binop * ntree * ntree
  | N_ite of ntree * ntree * ntree  (** ite (c <u a) a b, as in [gen_expr] *)

let all_binops =
  Expr.
    [
      Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Ashr; Udiv; Urem; Sdiv; Srem;
      Rotl; Rotr;
    ]

let all_unops = Expr.[ Not; Neg; Popcnt; Clz; Ctz ]

let gen_ntree =
  let open QCheck.Gen in
  fix
    (fun self n ->
      if n <= 0 then
        oneof
          [ return N_x; return N_y; map (fun v -> N_const (Int64.of_int v)) int ]
      else
        frequency
          [
            (1, return N_x);
            (1, return N_y);
            ( 4,
              map3
                (fun op a b -> N_binop (op, a, b))
                (oneofl all_binops) (self (n / 2)) (self (n / 2)) );
            ( 2,
              map2 (fun op a -> N_unop (op, a)) (oneofl all_unops)
                (self (n - 1)) );
            ( 1,
              map3
                (fun c a b -> N_ite (c, a, b))
                (self (n / 2)) (self (n / 2)) (self (n / 2)) );
          ])
    4

let rec build_expr width x y = function
  | N_x -> Expr.var x
  | N_y -> Expr.var y
  | N_const c -> Expr.const width c
  | N_unop (op, a) -> Expr.unop op (build_expr width x y a)
  | N_binop (op, a, b) ->
      Expr.binop op (build_expr width x y a) (build_expr width x y b)
  | N_ite (c, a, b) ->
      let c = build_expr width x y c
      and a = build_expr width x y a
      and b = build_expr width x y b in
      Expr.ite (Expr.cmp Expr.Ult c a) a b

let rec naive_eval width xv yv = function
  | N_x -> Expr.mask width xv
  | N_y -> Expr.mask width yv
  | N_const c -> Expr.mask width c
  | N_unop (op, a) -> Expr.eval_unop width op (naive_eval width xv yv a)
  | N_binop (op, a, b) ->
      Expr.eval_binop width op (naive_eval width xv yv a)
        (naive_eval width xv yv b)
  | N_ite (c, a, b) ->
      let cv = naive_eval width xv yv c and av = naive_eval width xv yv a in
      if Expr.eval_cmp width Expr.Ult cv av then av
      else naive_eval width xv yv b

let qcheck_hashcons_eval_identity width =
  let x = Expr.fresh_var ~name:"nx" width in
  let y = Expr.fresh_var ~name:"ny" width in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "hash-consed normal form = naive tree (width %d)" width)
    ~count:400
    (QCheck.make
       QCheck.Gen.(
         triple gen_ntree (map Int64.of_int int) (map Int64.of_int int)))
    (fun (t, xv, yv) ->
      let e = build_expr width x y t in
      let env = Hashtbl.create 4 in
      Hashtbl.replace env x.Expr.vid xv;
      Hashtbl.replace env y.Expr.vid yv;
      Expr.eval env e = naive_eval width xv yv t)

(* ------------------------------------------------------------------ *)
(* Bit-blasting vs. evaluator                                           *)
(* ------------------------------------------------------------------ *)

(* Generate random expressions over two variables. *)
let gen_expr width =
  let open QCheck.Gen in
  let binops =
    Expr.
      [
        Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Ashr; Udiv; Urem; Sdiv; Srem;
        Rotl; Rotr;
      ]
  in
  let unops = Expr.[ Not; Neg; Popcnt; Clz; Ctz ] in
  fun (x : Expr.var) (y : Expr.var) ->
    fix
      (fun self n ->
        if n <= 0 then
          oneof
            [
              return (Expr.var x);
              return (Expr.var y);
              map (fun v -> Expr.const width (Int64.of_int v)) int;
            ]
        else
          frequency
            [
              (1, return (Expr.var x));
              (1, return (Expr.var y));
              ( 4,
                map3
                  (fun op a b -> Expr.binop op a b)
                  (oneofl binops) (self (n / 2)) (self (n / 2)) );
              ( 2,
                map2 (fun op a -> Expr.unop op a) (oneofl unops) (self (n - 1)) );
              ( 1,
                map3
                  (fun c a b -> Expr.ite (Expr.cmp Expr.Ult c a) a b)
                  (self (n / 2)) (self (n / 2)) (self (n / 2)) );
            ])
      4

let blast_agrees_with_eval ?(count = 150) width =
  let x = Expr.fresh_var ~name:"x" width in
  let y = Expr.fresh_var ~name:"y" width in
  let gen =
    QCheck.Gen.(
      triple (gen_expr width x y) (map Int64.of_int int) (map Int64.of_int int))
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "bitblast = eval (width %d)" width)
    ~count
    (QCheck.make gen ~print:(fun (e, a, b) ->
         Printf.sprintf "%s with x=%Ld y=%Ld" (Expr.to_string e) a b))
    (fun (e, xv, yv) ->
      let env = Hashtbl.create 4 in
      Hashtbl.replace env x.Expr.vid xv;
      Hashtbl.replace env y.Expr.vid yv;
      let expected = Expr.eval env e in
      (* Pin x and y, assert e == expected: must be SAT. *)
      let pin =
        Expr.
          [
            cmp Eq (var x) (const width xv);
            cmp Eq (var y) (const width yv);
          ]
      in
      let c_eq = Expr.cmp Expr.Eq e (Expr.const width expected) in
      let ctx = Bitblast.create () in
      List.iter (Bitblast.assert_true ctx) (c_eq :: pin);
      match Sat.solve ctx.Bitblast.sat with
      | Sat.Sat -> (
          (* And e != expected must be UNSAT. *)
          let ctx2 = Bitblast.create () in
          List.iter (Bitblast.assert_true ctx2)
            (Expr.not_ c_eq :: pin);
          match Sat.solve ctx2.Bitblast.sat with
          | Sat.Unsat -> true
          | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Solver                                                               *)
(* ------------------------------------------------------------------ *)

let test_solver_quick_path () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 and y = fresh_var ~name:"y" 64 in
  let session = Solver.Session.create () in
  (match
     Solver.check ~session
       [
         cmp Eq (var x) (const 64 42L);
         cmp Eq (binop Add (var y) (const 64 1L)) (const 64 100L);
       ]
   with
  | Solver.Sat m ->
      Alcotest.(check int64) "x" 42L (Hashtbl.find m x.vid);
      Alcotest.(check int64) "y" 99L (Hashtbl.find m y.vid)
  | _ -> Alcotest.fail "expected sat");
  let st = Solver.Session.stats session in
  Alcotest.(check int) "went through quick path" 1 st.Solver.st_quick;
  Alcotest.(check int) "no blasting" 0 st.Solver.st_blasted

let test_solver_blast_path () =
  let open Expr in
  let x = fresh_var ~name:"x" 32 in
  (* popcnt(x) == 17 and x < 2^20: genuinely needs the circuit. *)
  match
    Solver.check
      [
        cmp Eq (unop Popcnt (var x)) (const 32 17L);
        cmp Ult (var x) (const 32 0x100000L);
      ]
  with
  | Solver.Sat m ->
      let xv = Hashtbl.find m x.vid in
      let pc = Expr.eval_unop 32 Expr.Popcnt xv in
      Alcotest.(check int64) "model has 17 bits set" 17L pc;
      Alcotest.(check bool) "bound respected" true
        (Int64.unsigned_compare (Expr.mask 32 xv) 0x100000L < 0)
  | _ -> Alcotest.fail "expected sat"

let test_solver_mul_equation () =
  let open Expr in
  let x = fresh_var ~name:"x" 16 in
  match
    Solver.check [ cmp Eq (binop Mul (var x) (const 16 3L)) (const 16 21L) ]
  with
  | Solver.Sat m ->
      let xv = Expr.mask 16 (Hashtbl.find m x.vid) in
      Alcotest.(check int64) "3x = 21 (mod 2^16)" 21L
        (Expr.mask 16 (Int64.mul xv 3L))
  | _ -> Alcotest.fail "expected sat"

let test_solver_unsat () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  match
    Solver.check
      [
        cmp Ult (var x) (const 64 2L);
        cmp Ult (const 64 5L) (var x);
      ]
  with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_conflicting_equalities () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  match
    Solver.check [ cmp Eq (var x) (const 64 1L); cmp Eq (var x) (const 64 2L) ]
  with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat via quick path contradiction"

let test_solver_budget_unknown () =
  let open Expr in
  (* A 24-bit factoring-flavoured instance with a conflict budget of 1
     should exhaust. *)
  let x = fresh_var ~name:"x" 24 and y = fresh_var ~name:"y" 24 in
  let product = binop Mul (var x) (var y) in
  let r =
    Solver.check ~conflict_budget:1
      [
        cmp Eq product (const 24 (Int64.of_int 0x7F4C2D));
        cmp Ult (const 24 1L) (var x);
        cmp Ult (const 24 1L) (var y);
      ]
  in
  match r with
  | Solver.Unknown -> ()
  | Solver.Sat _ -> ()  (* found before first conflict: acceptable *)
  | Solver.Unsat -> Alcotest.fail "cannot be unsat before exploring"

let test_solver_popcount_unsat () =
  let open Expr in
  (* No 32-bit value has 33 set bits. *)
  let x = fresh_var ~name:"x" 32 in
  match Solver.check [ cmp Eq (unop Popcnt (var x)) (const 32 33L) ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_division_semantics () =
  let open Expr in
  (* x / 0 is all-ones in our semantics: (x udiv 0) == 2^16-1 must be SAT
     for every x, and == 0 must be UNSAT. *)
  let x = fresh_var ~name:"x" 16 in
  (match
     Solver.check
       [ cmp Eq (binop Udiv (var x) (const 16 0L)) (const 16 0xFFFFL) ]
   with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "div-by-zero convention should be satisfiable");
  match
    Solver.check [ cmp Eq (binop Udiv (var x) (const 16 0L)) (const 16 0L) ]
  with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_validate_model () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  let cs = [ cmp Eq (var x) (const 64 9L) ] in
  let good = Hashtbl.create 1 in
  Hashtbl.replace good x.vid 9L;
  let bad = Hashtbl.create 1 in
  Hashtbl.replace bad x.vid 8L;
  Alcotest.(check bool) "good model" true (Solver.validate_model cs good);
  Alcotest.(check bool) "bad model" false (Solver.validate_model cs bad)

let qcheck_solver_models_validate =
  QCheck.Test.make ~name:"solver models satisfy constraints" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 255))
    (fun (a, b) ->
      let open Expr in
      let x = fresh_var ~name:"x" 32 in
      let cs =
        [
          cmp Eq
            (binop And (var x) (const 32 0xFFL))
            (const 32 (Int64.of_int b));
          cmp Ule (const 32 (Int64.of_int a)) (var x);
        ]
      in
      match Solver.check cs with
      | Solver.Sat m -> Solver.validate_model cs m
      | Solver.Unsat -> false (* always satisfiable *)
      | Solver.Unknown -> true)

(* ------------------------------------------------------------------ *)
(* Session cache                                                        *)
(* ------------------------------------------------------------------ *)

let verdict_of cs = function
  | Solver.Sat m -> `Sat (Solver.validate_model cs m)
  | Solver.Unsat -> `Unsat
  | Solver.Unknown -> `Unknown

(* The cache must be a pure memoization: verdicts identical with the
   cache on (hits included), off (capacity 0), and absent (no session). *)
let qcheck_cache_verdict_identity =
  QCheck.Test.make ~name:"Solver.check verdicts identical cache on/off"
    ~count:80
    QCheck.(pair (int_bound 0xFFFF) (int_bound 255))
    (fun (a, b) ->
      let open Expr in
      let x = fresh_var ~name:"cx" 16 in
      let sets =
        [
          [
            cmp Eq
              (binop And (var x) (const 16 0xFFL))
              (const 16 (Int64.of_int b));
            cmp Ule (const 16 (Int64.of_int a)) (var x);
          ];
          [ cmp Eq (binop Mul (var x) (const 16 5L)) (const 16 (Int64.of_int b)) ];
        ]
      in
      let cached = Solver.Session.create () in
      let uncached = Solver.Session.create ~cache_capacity:0 () in
      List.for_all
        (fun cs ->
          let plain = verdict_of cs (Solver.check cs) in
          let off = verdict_of cs (Solver.check ~session:uncached cs) in
          let on1 = verdict_of cs (Solver.check ~session:cached cs) in
          let on2 = verdict_of cs (Solver.check ~session:cached cs) in
          plain = off && off = on1 && on1 = on2)
        sets
      && (Solver.Session.stats cached).Solver.st_cache_hits > 0
      && (Solver.Session.stats uncached).Solver.st_cache_hits = 0)

(* The session's solver arena is reset before every blasted query, so a
   query sequence answered through one session must give, query by query,
   the verdict and model a fresh context gives.  The sequence mixes
   satisfiable queries, forced-Unsat ones ([c] with [not c]), and
   factoring queries at a conflict budget of 1 that stop mid-search with
   Unknown, leaving learnt clauses and a partial trail in the arena. *)
let qcheck_session_arena_is_fresh =
  QCheck.Test.make ~name:"session arena = fresh context on every query"
    ~count:20
    QCheck.(pair (int_bound 1000000) (int_range 4 12))
    (fun (seed, len) ->
      let rng = Wasai_support.Rand.create (Int64.of_int seed) in
      let open Expr in
      let x = fresh_var ~name:"ax" 16 and y = fresh_var ~name:"ay" 16 in
      let k () = const 16 (Int64.of_int (Wasai_support.Rand.int rng 0x10000)) in
      let guard () =
        match Wasai_support.Rand.int rng 3 with
        | 0 -> cmp Ule (binop Mul (var x) (k ())) (k ())
        | 1 -> cmp Eq (binop And (binop Add (var x) (var y)) (k ())) (k ())
        | _ -> cmp Ult (binop Xor (var y) (k ())) (binop Mul (var x) (var y))
      in
      let factoring () =
        let a = fresh_var ~name:"fa" 24 and b = fresh_var ~name:"fb" 24 in
        [
          cmp Eq (binop Mul (var a) (var b))
            (const 24 (Int64.of_int (0x400001 + (2 * Wasai_support.Rand.int rng 0x1000))));
          cmp Ult (const 24 1L) (var a);
          cmp Ult (const 24 1L) (var b);
        ]
      in
      let query i =
        match i mod 4 with
        | 0 -> (1, factoring ())
        | 1 ->
            let c = guard () in
            (50_000, [ guard (); c; not_ c ])
        | _ -> (50_000, List.init (1 + Wasai_support.Rand.int rng 3) (fun _ -> guard ()))
      in
      let outcome = function
        | Solver.Sat m ->
            `Sat (List.sort compare (Hashtbl.fold (fun v x acc -> (v, x) :: acc) m []))
        | Solver.Unsat -> `Unsat
        | Solver.Unknown -> `Unknown
      in
      let session = Solver.Session.create ~cache_capacity:0 () in
      let seen = Hashtbl.create 3 in
      let agree =
        List.for_all
          (fun i ->
            let budget, cs = query i in
            let via_arena =
              outcome (Solver.check ~session ~conflict_budget:budget cs)
            in
            let fresh = outcome (Solver.check ~conflict_budget:budget cs) in
            Hashtbl.replace seen
              (match via_arena with `Sat _ -> 0 | `Unsat -> 1 | `Unknown -> 2)
              ();
            via_arena = fresh)
          (List.init len Fun.id)
      in
      agree && Hashtbl.mem seen 1 && Hashtbl.mem seen 2
      && (Solver.Session.stats session).Solver.st_blasted = len)

let test_session_counters_and_lru () =
  let open Expr in
  let x = fresh_var ~name:"lx" 64 in
  let q i = [ cmp Eq (var x) (const 64 (Int64.of_int i)) ] in
  let s = Solver.Session.create ~cache_capacity:2 () in
  ignore (Solver.check ~session:s (q 1)); (* miss, quick *)
  ignore (Solver.check ~session:s (q 1)); (* hit *)
  ignore (Solver.check ~session:s (q 2)); (* miss, quick *)
  (* The cache is now full with q1 and q2; q1's last touch (its hit)
     predates q2's insert, so q1 is the LRU victim of the next insert. *)
  ignore (Solver.check ~session:s (q 3)); (* miss, evicts q1 *)
  ignore (Solver.check ~session:s (q 2)); (* hit: q2 survived *)
  ignore (Solver.check ~session:s (q 1)); (* miss: q1 was evicted *)
  let st = Solver.Session.stats s in
  Alcotest.(check int) "hits" 2 st.Solver.st_cache_hits;
  Alcotest.(check int) "misses" 4 st.Solver.st_cache_misses;
  Alcotest.(check int) "quick solves" 4 st.Solver.st_quick

let test_session_never_caches_unknown () =
  let open Expr in
  let x = fresh_var ~name:"ux" 24 and y = fresh_var ~name:"uy" 24 in
  let cs =
    [
      cmp Eq (binop Mul (var x) (var y)) (const 24 (Int64.of_int 0x7F4C2D));
      cmp Ult (const 24 1L) (var x);
      cmp Ult (const 24 1L) (var y);
    ]
  in
  let s = Solver.Session.create ~conflict_budget:1 () in
  match Solver.check ~session:s cs with
  | Solver.Unknown ->
      (* Unknown is a budget artefact: re-asking must miss again, so a
         later query under a bigger budget could still decide the set. *)
      ignore (Solver.check ~session:s cs);
      let st = Solver.Session.stats s in
      Alcotest.(check int) "no hits on unknown" 0 st.Solver.st_cache_hits;
      Alcotest.(check int) "both misses" 2 st.Solver.st_cache_misses
  | Solver.Sat _ -> () (* decided before the first conflict: acceptable *)
  | Solver.Unsat -> Alcotest.fail "cannot be unsat before exploring"

(* The engine's adaptive retuning halves and doubles the session budget
   mid-run: the accessor pair must round-trip any positive value and
   reject the degenerate ones. *)
let test_session_budget_roundtrip () =
  let s = Solver.Session.create ~conflict_budget:20_000 () in
  Alcotest.(check int) "initial" 20_000 (Solver.Session.conflict_budget s);
  Solver.Session.set_conflict_budget s 1_250;
  Alcotest.(check int) "halved repeatedly" 1_250
    (Solver.Session.conflict_budget s);
  Solver.Session.set_conflict_budget s 80_000;
  Alcotest.(check int) "doubled past the default" 80_000
    (Solver.Session.conflict_budget s);
  (match Solver.Session.set_conflict_budget s 0 with
   | () -> Alcotest.fail "budget 0 accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "rejected set leaves budget unchanged" 80_000
    (Solver.Session.conflict_budget s)

let test_session_budget_precedence () =
  let open Expr in
  let x = fresh_var ~name:"bx" 24 and y = fresh_var ~name:"by" 24 in
  let cs =
    [
      cmp Eq (binop Mul (var x) (var y)) (const 24 (Int64.of_int 0x5E3F71));
      cmp Ult (const 24 1L) (var x);
      cmp Ult (const 24 1L) (var y);
    ]
  in
  (* An explicit per-call budget overrides the session's: a starvation
     budget of 1 must exhaust even though the session carries the
     (ample) default. *)
  let s = Solver.Session.create ~cache_capacity:0 () in
  match Solver.check ~session:s ~conflict_budget:1 cs with
  | Solver.Unknown -> ()
  | Solver.Sat _ -> () (* decided before the first conflict: acceptable *)
  | Solver.Unsat -> Alcotest.fail "cannot be unsat before exploring"

(* Unsat subset subsumption: once an Unsat constraint set is cached, any
   superset query is refuted without solving — a conjunction only grows
   stronger.  Sat entries must never subsume, and subsumed queries are
   never themselves inserted. *)
let test_session_unsat_subsumption () =
  let open Expr in
  let x = fresh_var ~name:"sx" 32 and y = fresh_var ~name:"sy" 32 in
  let c1 = cmp Eq (var x) (const 32 1L) in
  let c2 = cmp Eq (var x) (const 32 2L) in
  let c3 = cmp Eq (var y) (const 32 3L) in
  let s = Solver.Session.create () in
  (match Solver.check ~session:s [ c1; c2 ] with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "core not unsat");
  Alcotest.(check int) "no subsumption yet" 0 (Solver.Session.subsumed s);
  (match Solver.check ~session:s [ c1; c2; c3 ] with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "superset not unsat");
  Alcotest.(check int) "answered by subsumption" 1 (Solver.Session.subsumed s);
  let st = Solver.Session.stats s in
  Alcotest.(check int) "subsumption counts as a hit" 1 st.Solver.st_cache_hits;
  Alcotest.(check int) "only the core missed" 1 st.Solver.st_cache_misses;
  (* Subsumed queries are not inserted: re-asking subsumes again instead
     of hitting an exact entry. *)
  (match Solver.check ~session:s [ c1; c2; c3 ] with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "superset not unsat on re-ask");
  Alcotest.(check int) "subsumed again, no insert" 2 (Solver.Session.subsumed s);
  (* A cached Sat set must never refute its supersets. *)
  let s2 = Solver.Session.create () in
  (match Solver.check ~session:s2 [ c1 ] with
   | Solver.Sat _ -> ()
   | _ -> Alcotest.fail "singleton not sat");
  (match Solver.check ~session:s2 [ c1; c3 ] with
   | Solver.Sat _ -> ()
   | _ -> Alcotest.fail "sat superset mis-refuted");
  Alcotest.(check int) "sat entries never subsume" 0 (Solver.Session.subsumed s2)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wasai_smt"
    [
      ( "sat",
        [
          Alcotest.test_case "basic" `Quick test_sat_basic;
          Alcotest.test_case "unsat" `Quick test_sat_unsat;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          qc qcheck_random_3sat;
          qc qcheck_sat_reset_is_create;
        ] );
      ( "expr",
        [
          Alcotest.test_case "constant folding" `Quick test_expr_fold;
          Alcotest.test_case "inversion rules" `Quick test_expr_invert_rules;
          Alcotest.test_case "signedness" `Quick test_expr_signedness;
          Alcotest.test_case "popcnt/clz/ctz" `Quick test_expr_popcnt_clz;
        ] );
      ( "hashcons",
        [
          Alcotest.test_case "physical sharing" `Quick test_hashcons_sharing;
          qc (qcheck_hashcons_eval_identity 8);
          qc (qcheck_hashcons_eval_identity 32);
          qc (qcheck_hashcons_eval_identity 64);
        ] );
      ( "bitblast",
        [
          qc (blast_agrees_with_eval 8);
          qc (blast_agrees_with_eval 16);
          qc (blast_agrees_with_eval 32);
          qc (blast_agrees_with_eval ~count:15 64);
          Alcotest.test_case "width-1 booleans blast" `Quick (fun () ->
              let open Expr in
              let p = fresh_var ~name:"p" 1 and q = fresh_var ~name:"q" 1 in
              (* p && !q, q == 0: satisfiable with p=1,q=0. *)
              match
                Solver.check
                  [
                    and_ (var p) (not_ (var q));
                    cmp Eq (var q) (const 1 0L);
                  ]
              with
              | Solver.Sat m ->
                  Alcotest.(check int64) "p" 1L (Hashtbl.find m p.vid)
              | _ -> Alcotest.fail "expected sat");
        ] );
      ( "solver",
        [
          Alcotest.test_case "quick path" `Quick test_solver_quick_path;
          Alcotest.test_case "popcount via blast" `Quick test_solver_blast_path;
          Alcotest.test_case "mul equation" `Quick test_solver_mul_equation;
          Alcotest.test_case "unsat interval" `Quick test_solver_unsat;
          Alcotest.test_case "conflicting equalities" `Quick
            test_solver_conflicting_equalities;
          Alcotest.test_case "budget => unknown" `Quick test_solver_budget_unknown;
          Alcotest.test_case "popcount unsat" `Quick test_solver_popcount_unsat;
          Alcotest.test_case "division semantics" `Quick
            test_solver_division_semantics;
          Alcotest.test_case "validate_model" `Quick test_validate_model;
          qc qcheck_solver_models_validate;
        ] );
      ( "session",
        [
          qc qcheck_cache_verdict_identity;
          qc qcheck_session_arena_is_fresh;
          Alcotest.test_case "counters and LRU eviction" `Quick
            test_session_counters_and_lru;
          Alcotest.test_case "unknown never cached" `Quick
            test_session_never_caches_unknown;
          Alcotest.test_case "explicit budget wins" `Quick
            test_session_budget_precedence;
          Alcotest.test_case "budget accessor round-trip" `Quick
            test_session_budget_roundtrip;
          Alcotest.test_case "unsat subset subsumption" `Quick
            test_session_unsat_subsumption;
        ] );
    ]
