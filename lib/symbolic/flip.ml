(** Constraint flipping and adaptive-seed generation (§3.4.4).

    For every conditional state on the executed path whose condition
    involves symbolic input, build the constraint set

      path-prefix (as taken)  ∧  ¬condition

    keeping assert conditions positive, and solve.  Each model concretises
    to a new seed's argument vector. *)

module Expr = Wasai_smt.Expr
module Solver = Wasai_smt.Solver

type candidate = {
  cand_index : int;  (** index of the flipped conditional in the path *)
  cand_site : int;
  cand_flipped_dir : bool option;
      (** direction the flip targets, for branch conditionals *)
  cand_constraints : Expr.t list;
}

(* Variable ids owned by the input layout. *)
let layout_var_ids (lay : Convention.layout) : (int, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, _, sp) ->
      match (sp : Convention.sym_param) with
      | Convention.SP_scalar v -> Hashtbl.replace tbl v.Expr.vid ()
      | Convention.SP_asset { amount; symbol } ->
          Hashtbl.replace tbl amount.Expr.vid ();
          Hashtbl.replace tbl symbol.Expr.vid ()
      | Convention.SP_string { len; content } ->
          Hashtbl.replace tbl len.Expr.vid ();
          Array.iter (fun v -> Hashtbl.replace tbl v.Expr.vid ()) content)
    lay.Convention.lay_params;
  tbl

(* "Does this condition mention symbolic input?", memoized across calls:
   path prefixes overlap almost entirely between candidates, and
   hash-consing makes the per-node answer stable, so one tag-keyed table
   turns the candidate scan from O(path²) node visits into O(path). *)
let mentions_input_memo input_vars =
  let memo = Hashtbl.create 256 in
  fun (e : Expr.t) ->
    Expr.contains_var_memo memo (fun v -> Hashtbl.mem input_vars v.Expr.vid) e

(** Enumerate flip candidates for a replayed path. *)
let candidates (r : Replay.result) : candidate list =
  match r.Replay.r_layout with
  | None -> []
  | Some lay ->
      let input_vars = layout_var_ids lay in
      let mentions = mentions_input_memo input_vars in
      let out = ref [] in
      (* Input-mentioning conditions before the current one, newest
         first: one forward pass, each condition tested once. *)
      let rev_prefix = ref [] in
      List.iteri
        (fun i (cs : Replay.cond_state) ->
          let mentioned = mentions cs.Replay.cs_cond in
          (* Only branches are flipped; asserts must stay satisfied.  The
             condition must involve symbolic input (§3.4.4). *)
          if cs.Replay.cs_kind <> Replay.K_assert && mentioned then
            out :=
              {
                cand_index = i;
                cand_site = cs.Replay.cs_site;
                cand_flipped_dir =
                  (match cs.Replay.cs_kind with
                   | Replay.K_branch -> Some (not cs.Replay.cs_taken)
                   | Replay.K_brtable | Replay.K_assert -> None);
                cand_constraints =
                  List.rev_append !rev_prefix [ Expr.not_ cs.Replay.cs_cond ];
              }
              :: !out;
          if mentioned then rev_prefix := cs.Replay.cs_cond :: !rev_prefix)
        r.Replay.r_path;
      (* Deepest conditional first: the newest frontier is the most
         valuable flip, and under a per-execution solve budget it must
         not starve behind branches already explored. *)
      !out

type solved_seed = {
  seed_args : Wasai_eosio.Abi.value list;
  seed_flipped_site : int;
}

(* §3.4.4: "we mutate one parameter in ρ⃗" — every input variable that does
   not occur in the flipped condition is pinned to its current concrete
   value.  Those values executed the path prefix, so pinning cannot make
   the constraint set unsatisfiable spuriously, and it keeps solved seeds
   from clobbering unrelated parameters (e.g. zeroing [from] and breaking
   its own authorisation). *)
let pin_constraints (lay : Convention.layout)
    ~(current : Wasai_eosio.Abi.value list) ~(free : (int, unit) Hashtbl.t) :
    Expr.t list =
  let module Abi = Wasai_eosio.Abi in
  let current = Array.of_list current in
  let pin (v : Expr.var) (value : int64) acc =
    if Hashtbl.mem free v.Expr.vid then acc
    else Expr.cmp Expr.Eq (Expr.var v) (Expr.const v.Expr.vwidth value) :: acc
  in
  List.concat
    (List.mapi
       (fun i (_, _, sp) ->
         let cur () = if i < Array.length current then Some current.(i) else None in
         match ((sp : Convention.sym_param), cur ()) with
         | Convention.SP_scalar v, Some (Abi.V_name x | Abi.V_u64 x) ->
             pin v x []
         | Convention.SP_scalar v, Some (Abi.V_u32 x) ->
             pin v (Int64.of_int32 x) []
         | Convention.SP_asset { amount; symbol }, Some (Abi.V_asset a) ->
             pin amount a.Wasai_eosio.Asset.amount
               (pin symbol a.Wasai_eosio.Asset.symbol [])
         | Convention.SP_string { len; content }, Some (Abi.V_string s) ->
             let acc = pin len (Int64.of_int (String.length s)) [] in
             let acc = ref acc in
             Array.iteri
               (fun k v ->
                 if k < String.length s then
                   acc := pin v (Int64.of_int (Char.code s.[k])) !acc)
               content;
             !acc
         | _ -> [])
       lay.Convention.lay_params)

(** Payload-sanity constraints: every asset amount must be positive and
    payable — a transfer with a non-positive or astronomical quantity is
    rejected by the token contract before it ever reaches the target. *)
let payload_sanity (lay : Convention.layout) ~(max_amount : int64) :
    Expr.t list =
  List.concat_map
    (fun (_, _, sp) ->
      match (sp : Convention.sym_param) with
      | Convention.SP_asset { amount; _ } ->
          [
            Expr.cmp Expr.Slt (Expr.const 64 0L) (Expr.var amount);
            Expr.cmp Expr.Sle (Expr.var amount) (Expr.const 64 max_amount);
          ]
      | _ -> [])
    lay.Convention.lay_params

(** Solve candidates (up to [max_solved]), concretising each model into a
    fresh argument vector.  [current] is the executed seed's arguments,
    used for unconstrained parameters. *)
let solve ?session ?conflict_budget ?(max_solved = 8) ?(side = [])
    ?(skip = fun (_ : candidate) -> false) (r : Replay.result)
    ~(current : Wasai_eosio.Abi.value list) : solved_seed list =
  (* Standalone calls (no session) keep the historical 20k default; with
     a session and no override, the session's budget applies. *)
  let conflict_budget =
    match (conflict_budget, session) with
    | None, None -> Some 20_000
    | cb, _ -> cb
  in
  match r.Replay.r_layout with
  | None -> []
  | Some lay ->
      let cands = List.filter (fun c -> not (skip c)) (candidates r) in
      let solved = ref [] in
      let count = ref 0 in
      List.iter
        (fun c ->
          if !count < max_solved then
            let free = Hashtbl.create 8 in
            (match List.rev c.cand_constraints with
             | flipped :: _ ->
                 Expr.iter_vars
                   (fun v -> Hashtbl.replace free v.Expr.vid ())
                   flipped
             | [] -> ());
            let pins = pin_constraints lay ~current ~free in
            match
              Solver.check ?session ?conflict_budget
                (side @ pins @ c.cand_constraints)
            with
            | Solver.Sat model ->
                incr count;
                let args = Convention.concretize lay model ~current in
                solved :=
                  { seed_args = args; seed_flipped_site = c.cand_site } :: !solved
            | Solver.Unsat | Solver.Unknown -> ())
        cands;
      List.rev !solved
