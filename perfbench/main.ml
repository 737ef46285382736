(* The repository benchmark.

   Usage: main.exe --workload deep|serve --seed N --seconds S
                   --trace 0|1

   [--trace 0] measures the end-to-end metrics with tracing off;
   [--trace 1] is the separate traced run that prints the per-layer
   metrics.  Inputs are generated from [--seed] and written as files
   under [.bench_work/] in the current directory; the program receives
   only those files.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Everything
   before it is a human-readable report, including the host/config
   fingerprint and the determinism digest. *)

module W = Workloads
module Journal = Wasai_campaign.Journal
module Discover = Wasai_campaign.Discover
module Client = Wasai_serve.Client
module Telemetry = Wasai_telemetry.Telemetry
module Solver = Wasai_smt.Solver

type workload = Deep | Serve

let workload_of_string = function
  | "deep" -> Some Deep
  | "serve" -> Some Serve
  | _ -> None

let string_of_workload = function Deep -> "deep" | Serve -> "serve"

let now = Unix.gettimeofday

(* Setup is repeated and its median reported, so that a change moving
   work into setup shows up despite the short absolute time. *)
let setup_repeats = 15

(* Files the traced run drives through the layers one call at a time. *)
let probe_sample = 6

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []

let emit ?(note = "") name unit value =
  metrics := (name, value, unit) :: !metrics;
  Printf.printf "metric %-34s %18.6f %-6s %s\n" name value unit note

let json_number v =
  (* JSON has no infinity: an unanswered submission's latency is
     reported as a 10^9-second miss. *)
  let v = if Float.is_finite v then v else 1e9 in
  Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed =
  let body =
    String.concat ", "
      (List.rev_map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         !metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let checks : (string * bool) list ref = ref []

let check name ok =
  checks := (name, ok) :: !checks;
  Printf.printf "check %-52s %s\n" name (if ok then "ok" else "FAILED")

let all_checks_pass () = List.for_all snd !checks

(* ------------------------------------------------------------------ *)
(* Host and config fingerprint                                          *)
(* ------------------------------------------------------------------ *)

(* CPUs this process may run on (what nproc prints), from the affinity
   list, e.g. "0-3,6". *)
let nproc () =
  match W.proc_status ~pid:"self" "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
      List.fold_left
        (fun acc range ->
          match String.split_on_char '-' (String.trim range) with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> (
              match (int_of_string_opt a, int_of_string_opt b) with
              | Some a, Some b -> acc + (b - a + 1)
              | _ -> acc)
          | _ -> acc)
        0
        (String.split_on_char ',' list)

let fingerprint ~workload ~seed ~seconds ~trace ~jobs =
  Printf.printf
    "fingerprint: workload=%s seed=%Ld seconds=%g trace=%d nproc=%d \
     recommended_domains=%d ocaml=%s backend=%s rounds=%d jobs=%d\n%!"
    (string_of_workload workload) seed seconds trace (nproc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Wasai_core.Exec_backend.to_string W.engine_config.Wasai_core.Engine.cfg_backend)
    W.rounds jobs

(* ------------------------------------------------------------------ *)
(* Per-layer metric table                                               *)
(* ------------------------------------------------------------------ *)

(* For each per-layer metric: unit, the end-to-end metric it should
   move, and on which workload.  Printed beside the traced figures. *)
let layer_table =
  [
    ("campaign.load_ms", "ms", "targets_per_cpu_s", "deep");
    ("campaign.busy_share", "ratio", "targets_per_cpu_s", "deep");
    ("campaign.target_cpu_p50_ms", "ms", "targets_per_cpu_s", "deep");
    ("campaign.target_cpu_tail_ms", "ms", "targets_per_cpu_s", "deep");
    ("wasm.decode_us_per_kb", "us/KB", "targets_per_cpu_s", "serve, deep");
    ("wasm.validate_us", "us", "targets_per_cpu_s", "serve, deep");
    ("wasabi.instrument_ms", "ms", "targets_per_cpu_s", "serve, deep");
    ("wasabi.growth", "count", "engine.run_one_us", "serve, deep");
    ("wasm.compile_ms", "ms", "targets_per_cpu_s", "serve, deep");
    ("engine.setup_ms", "ms", "targets_per_cpu_s", "serve, deep");
    ("engine.run_one_us", "us", "payloads_per_cpu_s", "serve, deep");
    ("engine.minor_words_per_payload", "count", "payloads_per_cpu_s", "serve, deep");
    ("trace.events_per_payload", "count", "engine.run_one_us", "serve, deep");
    ("replay.us_per_payload", "us", "branches_per_cpu_s", "deep");
    ("replay.conds_per_payload", "count", "flip.ms_per_payload", "deep");
    ("flip.ms_per_payload", "ms", "branches_per_cpu_s, targets_per_cpu_s", "deep");
    ("flip.yield", "ratio", "branches_per_cpu_s", "deep");
    ("solver.ms_per_query", "ms", "branches_per_cpu_s", "deep");
    ("solver.quick_share", "ratio", "branches_per_cpu_s", "deep, serve");
    ("solver.blast_share", "ratio", "branches_per_cpu_s", "deep, serve");
    ("solver.cache_hit_ratio", "ratio", "branches_per_cpu_s", "deep, serve");
    ("solver.unknown_ratio", "ratio", "branches_per_cpu_s; f1", "deep, serve");
    ("engine.payloads_per_target", "count", "none in a pure speed change", "deep, serve");
    ("engine.adaptive_seeds_per_target", "count", "none in a pure speed change", "deep, serve");
    ("engine.verdict_round", "count", "none in a pure speed change", "deep, serve");
    ("engine.branches_per_target", "count", "none in a pure speed change", "deep, serve");
    ("serve.verdict_p50_s", "s", "targets_per_cpu_s", "serve");
    ("serve.verdict_tail_s", "s", "targets_per_cpu_s", "serve");
    ("serve.queue_wait_s", "s", "serve.verdict_p50_s, serve.verdict_tail_s", "serve");
    ("serve.cached_ms", "ms", "serve.verdict_p50_s", "serve");
    ("serve.ping_rtt_us", "us", "serve.verdict_p50_s", "serve");
    ("serve.busy", "count", "failed (the result's count)", "serve");
    ("loadgen.late_s", "s", "none (validity check)", "serve");
  ]
  @ List.map
      (fun st ->
        ( Printf.sprintf "stage.%s.share" (Telemetry.stage_name st),
          "ratio", "cross-check", "all" ))
      Telemetry.stages
  @ [
      ("stage.unattributed.share", "ratio", "none", "all");
      ("trace.overhead", "ratio", "none", "deep (1 on serve)");
    ]

let emit_layer values =
  Printf.printf "\nper-layer metrics (0 where the layer is off this workload's path):\n";
  Printf.printf "%-34s %14s %-6s %-32s %s\n" "metric" "value" "unit" "should move" "on";
  List.iter
    (fun (name, unit, moves, on) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      metrics := (name, v, unit) :: !metrics;
      Printf.printf "%-34s %14.6f %-6s %-32s %s\n" name v unit moves on)
    layer_table

(* ------------------------------------------------------------------ *)
(* Shared summaries                                                     *)
(* ------------------------------------------------------------------ *)

let sum_int f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sum_float f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let elapsed_of (e : Journal.entry) = e.Journal.je_elapsed

(* Solver counters pooled over [entries]: (quick, blasted, unknown,
   cache hits, cache misses). *)
let solver_layer entries =
  let st =
    List.fold_left
      (fun acc (e : Journal.entry) -> Solver.stats_add acc e.Journal.je_solver)
      Solver.stats_zero entries
  in
  let q = float_of_int st.Solver.st_quick
  and b = float_of_int st.Solver.st_blasted
  and u = float_of_int st.Solver.st_unknown
  and h = float_of_int st.Solver.st_cache_hits
  and m = float_of_int st.Solver.st_cache_misses in
  [
    ("solver.quick_share", Stats.ratio q (q +. b +. h));
    ("solver.blast_share", Stats.ratio b (q +. b +. h));
    ("solver.cache_hit_ratio", Stats.ratio h (h +. m));
    ("solver.unknown_ratio", Stats.ratio u b);
  ]

let engine_layer entries =
  let n = float_of_int (max 1 (List.length entries)) in
  let per f = float_of_int (sum_int f entries) /. n in
  [
    ("engine.payloads_per_target", per (fun e -> e.Journal.je_transactions));
    ("engine.adaptive_seeds_per_target", per (fun e -> e.Journal.je_adaptive_seeds));
    ("engine.branches_per_target", per (fun e -> e.Journal.je_branches));
  ]

let print_accounting title rows =
  Printf.printf "\n%s\n" title;
  List.iter (fun (name, share) -> Printf.printf "  %-34s %8.4f\n" name share) rows;
  Printf.printf "  %-34s %8.4f\n" "total" (sum_float snd rows)

(* Telemetry's seconds per stage name in this process. *)
let local_stage_seconds () =
  List.map
    (fun (st, _, ns) -> (Telemetry.stage_name st, float_of_int ns /. 1e9))
    (Telemetry.snapshot ()).Telemetry.ts_stages

(* Per telemetry stage, its share of all recorded span time (the
   [stage.<stage>.share] rows), and the share of worker capacity
   ([workers] x [wall]) that no span covers.  The accounting table
   printed beside them restates every stage against capacity, so its
   rows and the unattributed remainder add up to the whole wall. *)
let stage_layer ~workers ~wall secs =
  let capacity = float_of_int workers *. wall in
  let spanned = sum_float snd secs in
  let unattributed = 1. -. Stats.ratio spanned capacity in
  print_accounting
    (Printf.sprintf "telemetry stages (%d workers x %.3f s = %.3f s of capacity):"
       workers wall capacity)
    (List.map (fun (st, t) -> ("stage." ^ st, Stats.ratio t capacity)) secs
    @ [ ("unattributed", unattributed) ]);
  List.map (fun (st, t) -> (Printf.sprintf "stage.%s.share" st, Stats.ratio t spanned)) secs
  @ [ ("stage.unattributed.share", unattributed) ]

(* Self time of the benchmark's spans as shares of [capacity] seconds,
   with the remainder (time no span covers) shown as its own row. *)
let span_accounting ~title ~capacity all =
  let rows =
    List.map
      (fun (name, self, _) -> ("self " ^ name, Stats.ratio self capacity))
      (Spans.self_by_name all)
  in
  print_accounting title (rows @ [ ("remainder (no span)", 1. -. sum_float snd rows) ])

let span_mean_ms all name =
  let total, n = Spans.total_of_name all name in
  Stats.ratio (total *. 1000.) (float_of_int n)

(* Per-layer figures of the layer-by-layer probe. *)
let probe_layer ~seed ~payloads_per_target paths =
  Telemetry.disable ();
  let spans = Spans.create () in
  let p = Probe.create () in
  List.iter
    (Probe.target p ~spans)
    (Probe.sample ~seed ~k:probe_sample paths);
  let all = Spans.spans spans in
  let total name = fst (Spans.total_of_name all name) in
  let payloads = float_of_int (max 1 p.Probe.payloads) in
  let replays = float_of_int p.Probe.replays in
  let targets = float_of_int p.Probe.targets in
  Printf.printf "\nprobe: %d files, %d payloads, %d replays\n"
    p.Probe.targets p.Probe.payloads p.Probe.replays;
  let layers =
    List.filter
      (fun (name, _, _) -> name <> "probe.record" && name <> "probe.target")
      (Spans.self_by_name all)
  in
  (* A layer's weight in the workload is its per-call self time times
     how often one target calls it there: once per target for set-up
     layers, once per payload for execution, and once per replayed
     payload for the symbolic layers. *)
  let per_target name =
    match name with
    | "engine.run_one" -> payloads_per_target
    | "symbolic.replay" | "symbolic.flip" ->
        payloads_per_target *. Stats.ratio replays payloads
    | _ -> 1.
  in
  Printf.printf "  %-20s %10s %8s %12s %16s\n" "layer" "self s" "calls" "per call ms"
    "per target ms";
  let weighted =
    List.map
      (fun (name, self, n) ->
        let per_call = self /. float_of_int (max 1 n) in
        let w = per_call *. per_target name in
        Printf.printf "  %-20s %10.4f %8d %12.4f %16.4f\n" name self n
          (per_call *. 1000.) (w *. 1000.);
        (name, w))
      layers
  in
  (match List.sort (fun (_, a) (_, b) -> Float.compare b a) weighted with
   | (name, _) :: _ ->
       Printf.printf
         "  largest layer per target (%.1f payloads per target in the workload): %s\n"
         payloads_per_target name
   | [] -> ());
  ( all,
    [
      ("wasm.decode_us_per_kb", Stats.ratio (total "wasm.decode" *. 1e6) p.Probe.kilobytes);
      ("wasm.validate_us", Stats.ratio (total "wasm.validate" *. 1e6) targets);
      ("wasabi.instrument_ms", span_mean_ms all "wasabi.instrument");
      ("wasabi.growth", Stats.mean p.Probe.growth);
      ("wasm.compile_ms", span_mean_ms all "wasm.compile");
      ("engine.setup_ms", span_mean_ms all "engine.setup");
      ("engine.run_one_us", total "engine.run_one" *. 1e6 /. payloads);
      ("engine.minor_words_per_payload", p.Probe.minor_words /. payloads);
      ("trace.events_per_payload", float_of_int p.Probe.events /. payloads);
      ("replay.us_per_payload", Stats.ratio (total "symbolic.replay" *. 1e6) replays);
      ("replay.conds_per_payload", Stats.ratio (float_of_int p.Probe.conds) replays);
      ("flip.ms_per_payload", Stats.ratio (total "symbolic.flip" *. 1000.) replays);
      ("flip.yield",
        Stats.ratio (float_of_int p.Probe.solved) (float_of_int p.Probe.candidates));
      ("solver.ms_per_query",
        Stats.ratio (total "symbolic.flip" *. 1000.) (float_of_int p.Probe.queries));
      ("engine.verdict_round", Stats.mean (List.map float_of_int p.Probe.verdict_rounds));
    ] )

(* ------------------------------------------------------------------ *)
(* Campaign workload (deep)                                           *)
(* ------------------------------------------------------------------ *)

(* Set up [setup_repeats] times, each into a fresh directory under
   [work], and return the median user CPU time with the last set-up.
   [extra] adds CPU time spent outside this process (the daemon's
   start-up).  Earlier set-ups are disposed of and their files removed
   (untimed) before the next starts. *)
let timed_setups ~work ?(dispose = ignore) ?(extra = fun _ -> 0.) f =
  let rec go k times =
    let dir = Filename.concat work (Printf.sprintf "setup-%d" k) in
    let c0 = W.user_cpu () in
    let r = f dir in
    let times = (W.user_cpu () -. c0 +. extra r) :: times in
    if k + 1 = setup_repeats then begin
      Printf.printf "set-up CPU s: %s\n"
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times));
      (Stats.median times, r)
    end
    else begin
      dispose r;
      W.rm_rf dir;
      go (k + 1) times
    end
  in
  go 0 []

(* The first campaign over each chunk, in run order. *)
let first_visits passes =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun p ->
      let fresh = not (Hashtbl.mem seen p.W.ps_chunk) in
      Hashtbl.replace seen p.W.ps_chunk ();
      fresh)
    passes

(* Every campaign must raise nothing and journal one verdict per file of
   its chunk, and a chunk run twice must repeat its digest.  Returns
   chunk 0's digest (every run starts with chunk 0). *)
let check_passes ~label (chunks : W.chunk array) (passes : W.pass list) =
  let names c =
    List.sort compare (List.map (fun s -> s.W.sm_name) chunks.(c).W.ch_samples)
  in
  let first = Hashtbl.create 8 in
  List.iter
    (fun p -> Hashtbl.replace first p.W.ps_chunk (Outcome_digest.of_entries p.W.ps_entries))
    (first_visits passes);
  check (label ^ ": no campaign raised")
    (List.for_all (fun p -> p.W.ps_error = None) passes);
  check (label ^ ": one verdict per file of the chunk")
    (List.for_all
       (fun p ->
         List.map (fun (e : Journal.entry) -> e.Journal.je_name) p.W.ps_entries
         = names p.W.ps_chunk)
       passes);
  check (label ^ ": a chunk run again repeats its digest")
    (List.for_all
       (fun p -> Outcome_digest.of_entries p.W.ps_entries = Hashtbl.find first p.W.ps_chunk)
       passes);
  Hashtbl.find first 0

let pass_totals passes =
  let entries = List.concat_map (fun p -> p.W.ps_entries) passes in
  let attempted = sum_int (fun p -> p.W.ps_attempted) passes in
  (entries, attempted, attempted - List.length entries, sum_float (fun p -> p.W.ps_wall) passes)

let f1_of chunks passes =
  let samples = List.concat_map (fun (c : W.chunk) -> c.W.ch_samples) (Array.to_list chunks) in
  Stats.f1_pct
    (W.confusion samples (List.concat_map (fun p -> p.W.ps_entries) (first_visits passes)))

(* Each target's CPU time: the median over the campaigns that ran it. *)
let target_cpu passes =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun p ->
      List.iter
        (fun (name, c) ->
          let key = (p.W.ps_chunk, name) in
          Hashtbl.replace tbl key (c :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
        p.W.ps_target_cpu)
    passes;
  Hashtbl.fold (fun _ cs acc -> Stats.median cs :: acc) tbl []

let run_campaign ~work ~seed ~seconds ~trace =
  (* One job: the campaign runs in this process's only domain, so the
     process's CPU time is the campaign's, and no worker stalls on
     another's stop-the-world collections. *)
  let jobs = 1 in
  fingerprint ~workload:Deep ~seed ~seconds ~trace:(if trace then 1 else 0) ~jobs;
  let setup_s, chunks = timed_setups ~work (fun dir -> W.coverage_chunks_of ~dir ~seed) in
  let label = "deep" in
  let chunk_list = chunks in
  let chunks = Array.of_list chunks in
  let size = W.coverage_count in
  if not trace then begin
    let ticks = W.host_ticks () in
    let passes = W.campaign_measure ~work ~jobs ~seconds chunk_list in
    let steal = W.steal_share ticks (W.host_ticks ()) in
    let digest = check_passes ~label chunks passes in
    let _, attempted, failed, wall = pass_totals passes in
    let f1 = f1_of chunks passes in
    check (label ^ ": total F1 is positive") (f1 > 0.);
    (* The rates pool every campaign of the run: their counts (a chunk
       run again repeats its counts, as the digest check shows) over
       their CPU time. *)
    let firsts = first_visits passes in
    let cpu = sum_float (fun p -> p.W.ps_cpu) passes in
    let count f = float_of_int (sum_int (fun p -> sum_int f p.W.ps_entries) passes) in
    Printf.printf
      "%s: %d campaigns of %d targets over %d chunks, %.3f s wall; host steal %.1f%% \
       of all CPU time meanwhile\n"
      label (List.length passes) size (List.length firsts) wall (100. *. steal);
    Printf.printf "campaign CPU s: %s\n"
      (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.W.ps_cpu) passes));
    Printf.printf "campaign wall s: %s\n"
      (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.W.ps_wall) passes));
    Printf.printf "digest %s %s (chunk 0, %d targets)\n" label digest size;
    let note = Printf.sprintf "(%d campaigns, %.3f user CPU s)" (List.length passes) cpu in
    emit "setup_s" "s" setup_s ~note:(Printf.sprintf "(user CPU, median of %d)" setup_repeats);
    emit "targets_per_cpu_s" "1/s" (count (fun _ -> 1) /. cpu) ~note;
    emit "branches_per_cpu_s" "1/s" (count (fun e -> e.Journal.je_branches) /. cpu) ~note;
    emit "payloads_per_cpu_s" "1/s" (count (fun e -> e.Journal.je_transactions) /. cpu) ~note;
    emit "f1" "%" f1 ~note:"(first campaign over each chunk)";
    Printf.printf "failed_share %.6f (%d of %d)\n"
      (Stats.ratio (float_of_int failed) (float_of_int attempted))
      failed attempted;
    emit "peak_rss_mb" "MB" (W.peak_rss_mb "self") ~note:"(the whole run)";
    (* Figures for the reader, without a bound: the wall-clock rate moves
       with the host, and the per-target times are the traced run's. *)
    let per_target = target_cpu passes in
    Printf.printf "wall-clock targets/s %.3f; per-target CPU p50 %.2f ms, p90 %.2f ms\n"
      (Stats.ratio (float_of_int (sum_int (fun p -> List.length p.W.ps_entries) passes)) wall)
      (1000. *. Stats.median per_target) (1000. *. Stats.percentile per_target 90.);
    (attempted, failed)
  end
  else begin
    (* Untraced and traced campaigns alternate over the same chunk until
       [seconds] have passed, so warm-up and drift fall on both sides of
       trace.overhead.  A traced campaign rediscovers the chunk's files
       and runs with telemetry on and the benchmark's spans around each
       target. *)
    Telemetry.reset ();
    let spans = Spans.create () in
    let traced_pass ~journal ~chunk =
      let targets =
        Spans.time spans ~group:"" ~name:"campaign.discover" (fun () ->
            Discover.dir chunks.(chunk).W.ch_dir)
      in
      let tr =
        { W.ct_spans = spans; ct_run = Spans.fresh_id spans;
          ct_loads = Hashtbl.create 128; ct_lock = Mutex.create () }
      in
      let p = W.campaign_pass ~trace:tr ~jobs ~journal ~chunk targets in
      Telemetry.disable ();
      p
    in
    let start = now () in
    let rec go k untraced traced =
      let journal = Filename.concat work (Printf.sprintf "journal-%d" k) in
      let chunk = k / 2 mod Array.length chunks in
      if k mod 2 = 0 then
        go (k + 1)
          (W.campaign_pass ~jobs ~journal ~chunk chunks.(chunk).W.ch_targets
          :: untraced)
          traced
      else
        let traced = traced_pass ~journal ~chunk :: traced in
        if now () -. start >= seconds then (List.rev untraced, List.rev traced)
        else go (k + 1) untraced traced
    in
    let untraced, traced = go 0 [] [] in
    let digest = check_passes ~label chunks (untraced @ traced) in
    Printf.printf "digest %s %s (chunk 0, %d targets)\n" label digest size;
    let _, u_attempted, u_failed, _ = pass_totals untraced in
    let target_cpus = target_cpu untraced in
    let entries, attempted, failed, wall = pass_totals traced in
    let stages = stage_layer ~workers:jobs ~wall (local_stage_seconds ()) in
    let all = Spans.spans spans in
    span_accounting
      ~title:
        (Printf.sprintf "benchmark spans, self time as share of %d workers x %.3f s:" jobs
           wall)
      ~capacity:(float_of_int jobs *. wall)
      all;
    let per_target f =
      float_of_int (sum_int f entries) /. float_of_int (max 1 (List.length entries))
    in
    let probe_spans, probe =
      probe_layer ~seed
        ~payloads_per_target:(per_target (fun e -> e.Journal.je_transactions))
        (List.map (fun s -> s.W.sm_path) chunks.(0).W.ch_samples)
    in
    Spans.write (all @ probe_spans)
      (Printf.sprintf ".bench_work/spans-%s-%Ld.tsv" label seed);
    emit_layer
      ([
         ("campaign.load_ms", span_mean_ms all "campaign.load");
         ("campaign.busy_share",
           Stats.ratio (sum_float elapsed_of entries) (float_of_int jobs *. wall));
         ("campaign.target_cpu_p50_ms", 1000. *. Stats.median target_cpus);
         ("campaign.target_cpu_tail_ms",
           1000. *. (Stats.tail ~unit:size target_cpus).Stats.tl_value);
         ("trace.overhead",
           Stats.ratio (sum_float (fun p -> p.W.ps_cpu) traced)
             (sum_float (fun p -> p.W.ps_cpu) untraced));
       ]
      @ probe @ solver_layer entries @ engine_layer entries @ stages);
    (attempted + u_attempted, failed + u_failed)
  end

(* ------------------------------------------------------------------ *)
(* Serve workload                                                       *)
(* ------------------------------------------------------------------ *)

let serve_setup ~seed ~seconds dir =
  let samples =
    W.ground_truth_corpus ~dir:(Filename.concat dir "corpus") ~seed
      ~fresh:(W.serve_count ~seconds)
  in
  let contracts =
    Array.of_list (List.map (fun s -> Client.contract_of_file s.W.sm_path) samples)
  in
  let daemon = W.start_daemon ~dir:(Filename.concat dir "daemon") in
  (samples, contracts, daemon)

type serve_summary = {
  ss_answered : (Loadgen.submission * float * bool * Journal.entry) list;
      (** submission, verdict time, cached, entry *)
  ss_fresh : Journal.entry list;
  ss_failed : int;
  ss_wall : float;  (** first due to last response *)
}

let summarize (ol : W.open_loop) =
  let answered =
    List.filter_map
      (fun (sb : Loadgen.submission) ->
        match sb.Loadgen.sb_fate with
        | Loadgen.Answered a -> Some (sb, a.at, a.cached, a.entry)
        | _ -> None)
      ol.W.ol_subs
  in
  {
    ss_answered = answered;
    ss_fresh =
      List.filter_map (fun (_, _, cached, e) -> if cached then None else Some e) answered;
    ss_failed = List.length (List.filter Loadgen.failed ol.W.ol_subs);
    ss_wall = ol.W.ol_last;
  }

let serve_digest_lines s =
  List.map
    (fun ((sb : Loadgen.submission), _, _, e) ->
      Outcome_digest.line ~scope:(sb.Loadgen.sb_tenant ^ "/") e)
    s.ss_answered

let check_serve ~label samples (ol : W.open_loop) s =
  check (label ^ ": no protocol error") (ol.W.ol_error = None);
  check (label ^ ": every submission got a verdict") (s.ss_failed = 0);
  let keys =
    List.map
      (fun ((sb : Loadgen.submission), _, _, (e : Journal.entry)) ->
        (sb.Loadgen.sb_tenant, e.Journal.je_name))
      (List.filter (fun (_, _, cached, _) -> not cached) s.ss_answered)
  in
  check (label ^ ": each (tenant, name) fuzzed once")
    (List.length (List.sort_uniq compare keys) = List.length keys);
  (* A cached verdict must repeat the fresh one for its (tenant, name). *)
  let lines = serve_digest_lines s in
  let distinct = List.sort_uniq compare lines in
  check (label ^ ": cached verdicts repeat the fresh ones")
    (List.length distinct = List.length keys);
  let names = List.map (fun s -> s.W.sm_name) samples in
  check (label ^ ": verdicts name submitted files")
    (List.for_all (fun (_, _, _, (e : Journal.entry)) -> List.mem e.Journal.je_name names)
       s.ss_answered)

let run_serve ~work ~seed ~seconds ~trace =
  fingerprint ~workload:Serve ~seed ~seconds ~trace:(if trace then 1 else 0) ~jobs:1;
  (* Only the last daemon serves; the earlier ones are stopped once
     their set-up has been timed. *)
  let setup_s, (samples, contracts, daemon) =
    timed_setups ~work
      ~dispose:(fun (_, _, d) -> W.stop_daemon d)
      ~extra:(fun (_, _, d) -> W.process_cpu d.W.dm_pid)
      (serve_setup ~seed ~seconds)
  in
  let plan () = W.serve_plan ~seed ~seconds ~samples:(Array.length contracts) in
  let attempted = List.length (plan ()) in
  let ticks = W.host_ticks () in
  let sv = W.serve_pass ~daemon ~contracts (plan ()) in
  let steal = W.steal_share ticks (W.host_ticks ()) in
  let ol = sv.W.sv_loop in
  let s = summarize ol in
  check_serve ~label:"serve" samples ol s;
  let f1 = Stats.f1_pct (W.confusion samples s.ss_fresh) in
  check "serve: total F1 at least 90%" (f1 >= 90.);
  let digest = Outcome_digest.of_lines (serve_digest_lines s) in
  Printf.printf "digest serve %s (%d fresh, %d cached)\n" digest
    (List.length s.ss_fresh)
    (List.length s.ss_answered - List.length s.ss_fresh);
  if not trace then begin
    (* Throughput is per CPU second of the daemon over the open loop: its
       worker's fuzzing and journal writes, and its serving of wire,
       admission and cached answers. *)
    let per_cpu f =
      float_of_int (sum_int f s.ss_fresh) /. sv.W.sv_cpu
    in
    let n_fresh = List.length s.ss_fresh and n_subs = List.length ol.W.ol_subs in
    let note = Printf.sprintf "(%d fresh verdicts, %.3f daemon user CPU s)" n_fresh sv.W.sv_cpu in
    Printf.printf "serve: %d submissions over %.3f s wall; host steal %.1f%% of all CPU time meanwhile\n"
      n_subs s.ss_wall (100. *. steal);
    emit "setup_s" "s" setup_s
      ~note:(Printf.sprintf "(user CPU and the daemon's start-up, median of %d)" setup_repeats);
    emit "targets_per_cpu_s" "1/s" (per_cpu (fun _ -> 1)) ~note;
    emit "branches_per_cpu_s" "1/s" (per_cpu (fun e -> e.Journal.je_branches)) ~note;
    emit "payloads_per_cpu_s" "1/s" (per_cpu (fun e -> e.Journal.je_transactions)) ~note;
    emit "f1" "%" f1;
    Printf.printf "failed_share %.6f (%d of %d)\n"
      (Stats.ratio (float_of_int s.ss_failed) (float_of_int attempted))
      s.ss_failed attempted;
    emit "peak_rss_mb" "MB" sv.W.sv_rss ~note:"(the daemon process)";
    (* Wall-clock figures, for the reader: they move with the host. *)
    let latencies = List.map Loadgen.latency ol.W.ol_subs in
    Printf.printf
      "wall-clock verdict latency p50 %.2f ms, tail %.2f ms; verdicts/s %.3f (offered %.0f/s)\n"
      (1000. *. Stats.median latencies)
      (1000. *. (Stats.tail latencies).Stats.tl_value)
      (float_of_int (List.length s.ss_answered) /. s.ss_wall)
      W.serve_rate;
    (attempted, s.ss_failed)
  end
  else begin
    (* The traced repeat runs the same plan against a second daemon with
       a fresh root; its stage rows come from that daemon's METRICS. *)
    let spans = Spans.create () in
    let daemon2 = W.start_daemon ~dir:(Filename.concat work "traced") in
    let ol2 = (W.serve_pass ~spans ~daemon:daemon2 ~contracts (plan ())).W.sv_loop in
    let s2 = summarize ol2 in
    let wall = s2.ss_wall in
    check "serve traced: daemon answered METRICS" (ol2.W.ol_metrics <> None);
    let stages =
      stage_layer ~workers:1 ~wall
        (W.stage_seconds (Option.value ~default:"" ol2.W.ol_metrics))
    in
    check_serve ~label:"serve traced" samples ol2 s2;
    check "serve: traced digest equals untraced"
      (Outcome_digest.of_lines (serve_digest_lines s2) = digest);
    let all = Spans.spans spans in
    span_accounting
      ~title:
        (Printf.sprintf
           "benchmark spans (generator process), self time as share of %.3f s:" wall)
      ~capacity:wall
      (List.filter (fun sp -> sp.Spans.sp_parent >= 0) all);
    let probe_spans, probe =
      probe_layer ~seed
        ~payloads_per_target:
          (Stats.ratio
             (float_of_int (sum_int (fun e -> e.Journal.je_transactions) s2.ss_fresh))
             (float_of_int (List.length s2.ss_fresh)))
        (List.map (fun s -> s.W.sm_path) samples)
    in
    Spans.write (all @ probe_spans) (Printf.sprintf ".bench_work/spans-serve-%Ld.tsv" seed);
    let fresh_answers = List.filter (fun (_, _, cached, _) -> not cached) s2.ss_answered in
    let cached_answers = List.filter (fun (_, _, cached, _) -> cached) s2.ss_answered in
    let latency_of ((sb : Loadgen.submission), at, _, _) = at -. sb.Loadgen.sb_due in
    let latencies = List.map Loadgen.latency ol2.W.ol_subs in
    (* The daemon records telemetry whether traced or not, and the
       benchmark's spans run only in this process, whose wall the fixed
       schedule sets: there is no tracing cost to compare. *)
    Printf.printf
      "\ntrace.overhead: not applicable on serve (daemon telemetry is always on; \
       spans run only in the generator), reported as 1\n";
    emit_layer
      ([
         ("campaign.load_ms", span_mean_ms probe_spans "campaign.load");
         ("campaign.busy_share", Stats.ratio (sum_float elapsed_of s2.ss_fresh) wall);
         ("trace.overhead", 1.);
         ("serve.verdict_p50_s", Stats.median latencies);
         ("serve.verdict_tail_s", (Stats.tail latencies).Stats.tl_value);
         ("serve.queue_wait_s",
           Stats.median
             (List.map (fun ((_, _, _, e) as a) -> latency_of a -. e.Journal.je_elapsed)
                fresh_answers));
         ("serve.cached_ms", 1000. *. Stats.median (List.map latency_of cached_answers));
         ("serve.ping_rtt_us", 1e6 *. Stats.median ol2.W.ol_pings);
         ("serve.busy", float_of_int ol2.W.ol_busy);
         ("loadgen.late_s", Stats.percentile (List.map Loadgen.late ol2.W.ol_subs) 95.);
       ]
      @ probe @ solver_layer s2.ss_fresh @ engine_layer s2.ss_fresh @ stages);
    (2 * attempted, s.ss_failed + s2.ss_failed)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let usage =
  "main.exe --workload deep|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), " deep|serve");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string_opt s), " workload seed");
      ("--seconds", Arg.String (fun s -> seconds := float_of_string_opt s), " measured seconds");
      ("--trace", Arg.String (fun s -> trace := int_of_string_opt s), " 0|1");
    ]
    (fun a -> bad ("unexpected argument " ^ a))
    usage;
  let workload =
    match Option.bind !workload workload_of_string with
    | Some w -> w
    | None -> bad "--workload must be deep or serve"
  in
  let seed = match !seed with Some s -> s | None -> bad "--seed needs an integer" in
  let seconds =
    match !seconds with
    | Some s when s > 0. -> s
    | _ -> bad "--seconds needs a positive number"
  in
  let trace =
    match !trace with
    | Some 0 -> false
    | Some 1 -> true
    | _ -> bad "--trace must be 0 or 1"
  in
  let work =
    Filename.concat ".bench_work"
      (Printf.sprintf "%s-%Ld-%d" (string_of_workload workload) seed (Unix.getpid ()))
  in
  W.rm_rf work;
  Wasai_support.Fsutil.mkdir_p work;
  let attempted, failed =
    Fun.protect
      ~finally:(fun () -> W.rm_rf work)
      (fun () ->
        match workload with
        | Deep -> run_campaign ~work ~seed ~seconds ~trace
        | Serve -> run_serve ~work ~seed ~seconds ~trace)
  in
  check "every target or submission ended in a verdict" (failed = 0);
  print_result ~correct:(all_checks_pass ()) ~attempted ~failed;
  exit 0
