(** CDCL SAT solver (MiniSat-style): two-literal watching, first-UIP
    conflict analysis, VSIDS branching with an activity heap, and Luby
    restarts.  A conflict budget stands in for the paper's 3,000 ms
    per-query cap: deterministic, so experiments reproduce exactly.

    Literal encoding: variable [v] (0-based) has positive literal [2v] and
    negative literal [2v+1]; negation is [lxor 1]. *)

type result = Sat | Unsat | Unknown

type clause = {
  lits : int array;  (** watched literals are lits.(0) and lits.(1) *)
  learnt : bool;
  mutable cact : float;
}

(* Growable int/clause vectors.  Every slot at or past [size] holds
   [dummy], so a vector never keeps a removed element alive. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

  let create dummy = { data = Array.make 16 dummy; size = 0; dummy }

  let push v x =
    if v.size = Array.length v.data then begin
      let bigger = Array.make (2 * v.size) v.dummy in
      Array.blit v.data 0 bigger 0 v.size;
      v.data <- bigger
    end;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.size

  let shrink v n =
    Array.fill v.data n (v.size - n) v.dummy;
    v.size <- n

  (* Empty the vector, keeping its capacity. *)
  let clear v = shrink v 0
end

type t = {
  mutable nvars : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable watches : clause Vec.t array;  (** indexed by literal *)
  mutable assign : int array;  (** -1 unassigned, else 0/1 *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable polarity : bool array;  (** phase saving *)
  trail : int Vec.t;  (** assigned literals in order *)
  trail_lim : int Vec.t;  (** decision-level boundaries *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  (* Activity-ordered heap of candidate decision variables. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;  (** -1 when not in heap *)
  mutable ok : bool;
  mutable conflicts : int;
  mutable cbuf : int array;  (** reused buffer for [add_clause] normalisation *)
}

let dummy_clause = { lits = [||]; learnt = false; cact = 0.0 }

let create () =
  {
    nvars = 0;
    clauses = Vec.create dummy_clause;
    learnts = Vec.create dummy_clause;
    watches = Array.init 2 (fun _ -> Vec.create dummy_clause);
    assign = Array.make 1 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 None;
    activity = Array.make 1 0.0;
    polarity = Array.make 1 false;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    heap = Array.make 1 0;
    heap_size = 0;
    heap_pos = Array.make 1 (-1);
    ok = true;
    conflicts = 0;
    cbuf = Array.make 8 0;
  }

(* Return [s] to the state [create ()] produces while keeping every array's
   capacity.  Only slots of the variables and literals in use can differ
   from their initial values, and the solver never reads a slot past
   [nvars] (resp. [2 * nvars]) without first growing into it, so a reset
   instance behaves exactly like a fresh one: same variable numbering,
   same clause order, same search. *)
let reset s =
  let n = s.nvars in
  Array.fill s.assign 0 n (-1);
  Array.fill s.level 0 n 0;
  Array.fill s.reason 0 n None;
  Array.fill s.activity 0 n 0.0;
  Array.fill s.polarity 0 n false;
  Array.fill s.heap_pos 0 n (-1);
  for l = 0 to (2 * n) - 1 do
    Vec.clear s.watches.(l)
  done;
  Vec.clear s.clauses;
  Vec.clear s.learnts;
  Vec.clear s.trail;
  Vec.clear s.trail_lim;
  s.nvars <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.cla_inc <- 1.0;
  s.heap_size <- 0;
  s.ok <- true;
  s.conflicts <- 0

(* ---- variable/literal helpers ------------------------------------- *)

let lit_of_var v ~positive = if positive then 2 * v else (2 * v) + 1
let var_of_lit l = l lsr 1
let neg l = l lxor 1

(* Value of a literal: -1 unassigned, 0 false, 1 true. *)
let lit_value s l =
  let a = s.assign.(var_of_lit l) in
  if a < 0 then -1 else a lxor (l land 1)

(* ---- heap --------------------------------------------------------- *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best))
  then best := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_size = Array.length s.heap then begin
      let bigger = Array.make (2 * s.heap_size) 0 in
      Array.blit s.heap 0 bigger 0 s.heap_size;
      s.heap <- bigger
    end;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_pos.(v) <- -1;
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

(* ---- variable allocation ------------------------------------------ *)

let grow_array a n dflt =
  let b = Array.make n dflt in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_var s : int =
  let v = s.nvars in
  s.nvars <- v + 1;
  if s.nvars > Array.length s.assign then begin
    let n = 2 * s.nvars in
    s.assign <- grow_array s.assign n (-1);
    s.level <- grow_array s.level n 0;
    s.reason <- grow_array s.reason n None;
    s.activity <- grow_array s.activity n 0.0;
    s.polarity <- grow_array s.polarity n false;
    s.heap_pos <- grow_array s.heap_pos n (-1);
    let w = Array.init (2 * n) (fun _ -> Vec.create dummy_clause) in
    Array.blit s.watches 0 w 0 (Array.length s.watches);
    s.watches <- w
  end;
  heap_insert s v;
  v

(* ---- assignment --------------------------------------------------- *)

let decision_level s = Vec.size s.trail_lim

let enqueue s l reason =
  let v = var_of_lit l in
  s.assign.(v) <- 1 lxor (l land 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* ---- clauses ------------------------------------------------------ *)

let watch s l c = Vec.push s.watches.(l) c

(** Add a clause; returns false if the instance is already unsat.

    The literals are normalised in [s.cbuf] without allocating: sorted
    ascending and deduplicated; the clause is dropped as a tautology when
    it holds both polarities of a variable (adjacent once sorted, since
    they differ only in the low bit) or a literal true at level 0; and
    literals false at level 0 are removed. *)
let add_clause s (lits : int list) : bool =
  if not s.ok then false
  else begin
    let len = List.length lits in
    if len > Array.length s.cbuf then s.cbuf <- Array.make (2 * len) 0;
    let buf = s.cbuf in
    (* Insertion sort with duplicate removal: clauses are a few literals. *)
    let n = ref 0 in
    List.iter
      (fun l ->
        let j = ref !n in
        while !j > 0 && buf.(!j - 1) > l do
          decr j
        done;
        if not (!j > 0 && buf.(!j - 1) = l) then begin
          Array.blit buf !j buf (!j + 1) (!n - !j);
          buf.(!j) <- l;
          incr n
        end)
      lits;
    let n = !n in
    let tautology = ref false in
    for i = 0 to n - 1 do
      if
        lit_value s buf.(i) = 1
        || (i + 1 < n && buf.(i + 1) = neg buf.(i))
      then tautology := true
    done;
    if !tautology then true
    else begin
      (* Compact away the literals false at level 0. *)
      let k = ref 0 in
      for i = 0 to n - 1 do
        if lit_value s buf.(i) <> 0 then begin
          buf.(!k) <- buf.(i);
          incr k
        end
      done;
      match !k with
      | 0 ->
          s.ok <- false;
          false
      | 1 ->
          enqueue s buf.(0) None;
          true
      | k ->
          let c = { lits = Array.sub buf 0 k; learnt = false; cact = 0.0 } in
          Vec.push s.clauses c;
          watch s (neg c.lits.(0)) c;
          watch s (neg c.lits.(1)) c;
          true
    end
  end

(* ---- propagation --------------------------------------------------- *)

exception Conflict of clause

let propagate s : clause option =
  try
    while s.qhead < Vec.size s.trail do
      let l = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      (* Clauses watching (neg l) may become unit/conflicting. *)
      let ws = s.watches.(l) in
      let n = Vec.size ws in
      let keep = ref 0 in
      let i = ref 0 in
      (try
         while !i < n do
           let c = Vec.get ws !i in
           incr i;
           (* Make sure the false literal is lits.(1). *)
           if c.lits.(0) = neg l then begin
             c.lits.(0) <- c.lits.(1);
             c.lits.(1) <- neg l
           end;
           if lit_value s c.lits.(0) = 1 then begin
             (* Clause satisfied; keep the watch. *)
             Vec.set ws !keep c;
             incr keep
           end
           else begin
             (* Look for a new watch. *)
             let found = ref false in
             let k = ref 2 in
             while (not !found) && !k < Array.length c.lits do
               if lit_value s c.lits.(!k) <> 0 then begin
                 let tmp = c.lits.(1) in
                 c.lits.(1) <- c.lits.(!k);
                 c.lits.(!k) <- tmp;
                 watch s (neg c.lits.(1)) c;
                 found := true
               end;
               incr k
             done;
             if not !found then begin
               (* Unit or conflict. *)
               Vec.set ws !keep c;
               incr keep;
               if lit_value s c.lits.(0) = 0 then begin
                 (* Conflict: keep remaining watches then bail. *)
                 while !i < n do
                   Vec.set ws !keep (Vec.get ws !i);
                   incr keep;
                   incr i
                 done;
                 Vec.shrink ws !keep;
                 s.qhead <- Vec.size s.trail;
                 raise (Conflict c)
               end
               else enqueue s c.lits.(0) (Some c)
             end
           end
         done;
         Vec.shrink ws !keep
       with Conflict _ as e -> raise e)
    done;
    None
  with Conflict c -> Some c

(* ---- conflict analysis --------------------------------------------- *)

let cla_bump s c =
  c.cact <- c.cact +. s.cla_inc;
  if c.cact > 1e20 then begin
    for i = 0 to Vec.size s.learnts - 1 do
      let d = Vec.get s.learnts i in
      d.cact <- d.cact *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

(** First-UIP learning; returns (learnt clause lits with asserting literal
    first, backtrack level). *)
let analyze s (confl : clause) : int list * int =
  let seen = Array.make s.nvars false in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref (Some confl) in
  let idx = ref (Vec.size s.trail - 1) in
  let btlevel = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    (match !confl with
     | None -> assert false
     | Some c ->
         if c.learnt then cla_bump s c;
         Array.iter
           (fun q ->
             if q <> !p then begin
               let v = var_of_lit q in
               if (not seen.(v)) && s.level.(v) > 0 then begin
                 seen.(v) <- true;
                 var_bump s v;
                 if s.level.(v) >= decision_level s then incr counter
                 else begin
                   learnt := q :: !learnt;
                   if s.level.(v) > !btlevel then btlevel := s.level.(v)
                 end
               end
             end)
           c.lits);
    (* Select next literal to look at. *)
    let rec skip () =
      let l = Vec.get s.trail !idx in
      if not seen.(var_of_lit l) then begin
        decr idx;
        skip ()
      end
      else l
    in
    let l = skip () in
    decr idx;
    p := l;
    confl := s.reason.(var_of_lit l);
    seen.(var_of_lit l) <- false;
    decr counter;
    if !counter = 0 then continue_ := false
  done;
  (neg !p :: !learnt, !btlevel)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = var_of_lit l in
      s.polarity.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

let record_learnt s lits =
  match lits with
  | [ l ] -> enqueue s l None
  | l :: _ ->
      let c = { lits = Array.of_list lits; learnt = true; cact = 0.0 } in
      (* Second watch should be a literal from the conflict level. *)
      let arr = c.lits in
      let max_i = ref 1 in
      for i = 1 to Array.length arr - 1 do
        if s.level.(var_of_lit arr.(i)) > s.level.(var_of_lit arr.(!max_i)) then
          max_i := i
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!max_i);
      arr.(!max_i) <- tmp;
      Vec.push s.learnts c;
      watch s (neg arr.(0)) c;
      watch s (neg arr.(1)) c;
      cla_bump s c;
      enqueue s l (Some c)
  | [] -> s.ok <- false

(* ---- decisions ----------------------------------------------------- *)

let rec pick_branch_var s : int option =
  if s.heap_size = 0 then None
  else
    let v = heap_pop s in
    if s.assign.(v) < 0 then Some v else pick_branch_var s

(* The i-th element (1-based) of the Luby restart sequence. *)
let rec luby_seq i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby_seq (i - (1 lsl (!k - 1)) + 1)

(* ---- main loop ----------------------------------------------------- *)

let solve ?(conflict_budget = 200_000) (s : t) : result =
  if not s.ok then Unsat
  else begin
    let budget_exhausted = ref false in
    let answer = ref None in
    let restart_count = ref 0 in
    (match propagate s with
     | Some _ -> answer := Some Unsat
     | None -> ());
    while !answer = None && not !budget_exhausted do
      incr restart_count;
      let restart_limit = 100 * luby_seq !restart_count in
      let local_conflicts = ref 0 in
      let done_ = ref false in
      while not !done_ do
        match propagate s with
        | Some confl ->
            s.conflicts <- s.conflicts + 1;
            incr local_conflicts;
            if decision_level s = 0 then begin
              answer := Some Unsat;
              done_ := true
            end
            else begin
              let learnt, btlevel = analyze s confl in
              cancel_until s btlevel;
              record_learnt s learnt;
              var_decay s;
              if s.conflicts >= conflict_budget then begin
                budget_exhausted := true;
                done_ := true
              end
              else if !local_conflicts >= restart_limit then begin
                cancel_until s 0;
                done_ := true
              end
            end
        | None -> (
            match pick_branch_var s with
            | None ->
                answer := Some Sat;
                done_ := true
            | Some v ->
                Vec.push s.trail_lim (Vec.size s.trail);
                enqueue s (lit_of_var v ~positive:s.polarity.(v)) None)
      done
    done;
    match !answer with
    | Some Sat -> Sat
    | Some r ->
        cancel_until s 0;
        r
    | None ->
        cancel_until s 0;
        Unknown
  end

(** Value of a variable in the satisfying assignment (call after
    [solve] = Sat; unassigned variables default to false). *)
let model_value s v = v < s.nvars && s.assign.(v) = 1

let num_vars s = s.nvars
let num_clauses s = Vec.size s.clauses
let num_conflicts s = s.conflicts
