(* Determinism digest: one line per completed target holding every
   outcome field that is a pure function of (engine seed, target) — the
   verdict flags, coverage, transaction and seed counts and the solver
   counters — sorted and hashed.  Wall-clock fields are left out, so two
   runs of one commit must print the same digest. *)

module Journal = Wasai_campaign.Journal
module Solver = Wasai_smt.Solver
module Scanner = Wasai_core.Scanner

let line ?(scope = "") (e : Journal.entry) =
  let s = e.Journal.je_solver in
  Printf.sprintf
    "%s%s flags=%s b=%d r=%d seeds=%d adaptive=%d tx=%d sat=%d imprecise=%d \
     solver=%d/%d/%d/%d/%d budget=%d"
    scope e.Journal.je_name
    (String.concat ","
       (List.filter_map
          (fun (f, fired) ->
            if fired then Some (Scanner.string_of_flag f) else None)
          e.Journal.je_flags))
    e.Journal.je_branches e.Journal.je_rounds e.Journal.je_seeds_total
    e.Journal.je_adaptive_seeds e.Journal.je_transactions
    e.Journal.je_solver_sat e.Journal.je_imprecise s.Solver.st_quick
    s.Solver.st_blasted s.Solver.st_unknown s.Solver.st_cache_hits
    s.Solver.st_cache_misses e.Journal.je_final_budget

let of_lines lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort_uniq compare lines)))

let of_entries entries = of_lines (List.map line entries)
