(* Layer-by-layer probe for the traced run: a seeded sample of the
   workload's files driven through each layer's public functions one
   call at a time, in the order [Engine.fuzz] uses them, with a span
   around every call. *)

module Engine = Wasai_core.Engine
module Seed = Wasai_core.Seed
module Scanner = Wasai_core.Scanner
module Discover = Wasai_campaign.Discover
module Solver = Wasai_smt.Solver
module Replay = Wasai_symbolic.Replay
module Flip = Wasai_symbolic.Flip
module Convention = Wasai_symbolic.Convention
module B = Wasai_wasabi.Trace.Buffer
module Abi = Wasai_eosio.Abi
module Name = Wasai_eosio.Name

type t = {
  mutable targets : int;
  mutable kilobytes : float;  (** encoded bytes decoded, KB *)
  mutable growth : float list;  (** instrumented ÷ original bytes *)
  mutable payloads : int;
  mutable minor_words : float;  (** around [run_one] *)
  mutable events : int;  (** trace records across payloads *)
  mutable replays : int;
  mutable conds : int;  (** path conditions across replays *)
  mutable candidates : int;  (** flip candidates not already covered *)
  mutable solved : int;
  mutable queries : int;  (** solver queries the flips issued *)
  mutable verdict_rounds : int list;
}

let create () =
  {
    targets = 0; kilobytes = 0.; growth = []; payloads = 0; minor_words = 0.;
    events = 0; replays = 0; conds = 0; candidates = 0; solved = 0; queries = 0;
    verdict_rounds = [];
  }

(* [k] files of [paths], drawn without replacement from the seeded
   stream. *)
let sample ~seed ~k paths =
  let rng = Random.State.make [| Int64.to_int seed; 0x9b0e |] in
  let a = Array.of_list paths in
  Loadgen.shuffle rng a;
  List.sort compare (Array.to_list (Array.sub a 0 (min k (Array.length a))))

(* The action function's entry arguments, located as the engine's
   feedback step locates them: the first call into an action candidate
   with at least the action's arity of operands. *)
let layout (s : Engine.session) (seed : Seed.t) buf =
  match Abi.find_action s.Engine.target.Engine.tgt_abi seed.Seed.sd_action with
  | None -> None
  | Some def ->
      let candidates = s.Engine.scanner.Scanner.action_candidates in
      let arity = List.length def.Abi.act_params + 1 in
      let n = B.length buf in
      let rec entry i =
        if i + 1 >= n then None
        else if
          B.kind buf i = B.K_call_pre
          && B.kind buf (i + 1) = B.K_func_begin
          && List.mem (B.label buf (i + 1)) candidates
          && B.op_count buf i >= arity
        then Some (Convention.infer def (B.ops buf i))
        else entry (i + 1)
      in
      entry 0

let channels_for action =
  if Name.equal action Name.transfer then
    [ Scanner.Ch_genuine; Scanner.Ch_direct; Scanner.Ch_fake_token; Scanner.Ch_fake_notif ]
  else [ Scanner.Ch_action action ]

let target t ~spans path =
  let cfg = Workloads.engine_config in
  let name = Filename.remove_extension (Filename.basename path) in
  let root = Spans.fresh_id spans in
  let t_root = Unix.gettimeofday () in
  let sp span f = Spans.time spans ~parent:root ~group:name ~name:span f in
  let account = Discover.account_of_filename path in
  let target = sp "campaign.load" (fun () -> Discover.load_target ~account path) in
  let bytes = Workloads.read_file path in
  let m = sp "wasm.decode" (fun () -> Wasai_wasm.Decode.decode bytes) in
  sp "wasm.validate" (fun () -> Wasai_wasm.Validate.check_module m);
  let instrumented, _ =
    sp "wasabi.instrument" (fun () -> Wasai_wasabi.Instrument.instrument m)
  in
  ignore (sp "wasm.compile" (fun () -> Wasai_wasm.Compile.prepare instrumented));
  t.targets <- t.targets + 1;
  t.kilobytes <- t.kilobytes +. (float_of_int (String.length bytes) /. 1024.);
  t.growth <-
    (float_of_int (String.length (Wasai_wasm.Encode.encode instrumented))
    /. float_of_int (String.length bytes))
    :: t.growth;
  (* The interesting seeds come from one whole fuzz of the target; that
     run is the recording step, not a layer, so it is its own root. *)
  let outcome =
    Spans.time spans ~group:name ~name:"probe.record" (fun () ->
        Engine.fuzz ~cfg target)
  in
  t.verdict_rounds <- outcome.Engine.out_verdict_round :: t.verdict_rounds;
  let s = sp "engine.setup" (fun () -> Engine.setup cfg target) in
  List.iter
    (fun (is : Engine.interesting) ->
      let seed =
        { Seed.sd_action = is.Engine.is_action; sd_args = is.Engine.is_args;
          sd_provenance = Seed.Random_seed }
      in
      List.iter
        (fun channel ->
          let w0 = Gc.minor_words () in
          let ex = sp "engine.run_one" (fun () -> Engine.run_one s seed channel) in
          t.minor_words <- t.minor_words +. (Gc.minor_words () -. w0);
          t.payloads <- t.payloads + 1;
          t.events <- t.events + B.length ex.Engine.ex_trace;
          match layout s seed ex.Engine.ex_trace with
          | None -> ()
          | Some lay ->
              let r =
                sp "symbolic.replay" (fun () ->
                    Replay.run ~layout:lay ~meta:s.Engine.meta
                      ~target_funcs:s.Engine.scanner.Scanner.action_candidates
                      ex.Engine.ex_trace)
              in
              t.replays <- t.replays + 1;
              t.conds <- t.conds + List.length r.Replay.r_path;
              let skip (c : Flip.candidate) =
                match c.Flip.cand_flipped_dir with
                | Some dir ->
                    Hashtbl.mem s.Engine.branches
                      (c.Flip.cand_site, if dir then 1l else 0l)
                | None -> false
              in
              t.candidates <-
                t.candidates
                + List.length (List.filter (fun c -> not (skip c)) (Flip.candidates r));
              let session =
                Solver.Session.create ~conflict_budget:cfg.Engine.cfg_solver_budget ()
              in
              let side = Flip.payload_sanity lay ~max_amount:Engine.funding in
              let solved =
                sp "symbolic.flip" (fun () ->
                    Flip.solve ~session ~max_solved:cfg.Engine.cfg_max_flips ~side
                      ~skip r ~current:ex.Engine.ex_observed)
              in
              let st = Solver.Session.stats session in
              t.solved <- t.solved + List.length solved;
              t.queries <-
                t.queries + st.Solver.st_quick + st.Solver.st_blasted
                + st.Solver.st_cache_hits)
        (channels_for is.Engine.is_action))
    outcome.Engine.out_interesting;
  ignore
    (Spans.record spans ~id:root ~group:name ~name:"probe.target" t_root
       (Unix.gettimeofday ()))
