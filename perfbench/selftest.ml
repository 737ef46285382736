(* Self-tests of the benchmark's own arithmetic and plumbing: the tail
   rule, F1, span self time, open-loop accounting, the CPU-time readers,
   and agreement of the serve and batch-campaign digests on one small
   corpus. *)

module W = Workloads
module Metrics = Wasai_support.Metrics

let failures = ref 0

let expect name ok =
  Printf.printf "%-60s %s\n%!" name (if ok then "ok" else "FAILED");
  if not ok then incr failures

let close a b = Float.abs (a -. b) < 1e-9

let test_tail () =
  let ints n = List.init n (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail (ints 100) in
  expect "tail of 100 samples is p90 with 10 beyond"
    (t.Stats.tl_pct = 90. && close t.Stats.tl_value 90. && t.Stats.tl_beyond = 10);
  let t = Stats.tail (List.rev (ints 1000)) in
  expect "tail of 1000 unsorted samples is p99 = 990"
    (t.Stats.tl_pct = 99. && close t.Stats.tl_value 990. && t.Stats.tl_count = 1000);
  let t = Stats.tail (ints 15) in
  expect "tail of 15 samples falls back to the median"
    (t.Stats.tl_pct = 50. && close t.Stats.tl_value 8. && t.Stats.tl_beyond = 7);
  let t = Stats.tail ~unit:100 (ints 1000) in
  expect "a pooled tail takes the percentile of its unit"
    (t.Stats.tl_pct = 90. && close t.Stats.tl_value 900. && t.Stats.tl_beyond = 100);
  expect "median of an even count is the lower middle"
    (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.)

let test_f1 () =
  let c = Metrics.empty () in
  let record n ~truth ~predicted =
    for _ = 1 to n do Metrics.record c ~truth ~predicted done
  in
  record 8 ~truth:true ~predicted:true;
  record 2 ~truth:false ~predicted:true;
  record 2 ~truth:true ~predicted:false;
  record 88 ~truth:false ~predicted:false;
  expect "F1 of tp=8 fp=2 fn=2 tn=88 is 80%" (close (Stats.f1_pct c) 80.);
  let c = Metrics.empty () in
  Metrics.record c ~truth:true ~predicted:false;
  expect "F1 with no true positive is 0" (close (Stats.f1_pct c) 0.)

let test_self_time () =
  let t = Spans.create () in
  let root = Spans.record t ~group:"g" ~name:"root" 0. 10. in
  let a = Spans.record t ~parent:root ~group:"g" ~name:"a" 1. 3. in
  ignore (Spans.record t ~parent:root ~group:"g" ~name:"b" 2. 5.);
  ignore (Spans.record t ~parent:root ~group:"g" ~name:"c" 8. 12.);
  ignore (Spans.record t ~parent:a ~group:"g" ~name:"d" 1.5 2.);
  let all = Spans.spans t in
  let self name =
    match List.find_opt (fun (n, _, _) -> n = name) (Spans.self_by_name all) with
    | Some (_, s, _) -> s
    | None -> nan
  in
  expect "self time subtracts the union of overlapping children" (close (self "root") 4.);
  expect "self time subtracts a grandchild from its parent only" (close (self "a") 1.5);
  expect "a leaf's self time is its duration" (close (self "b") 3. && close (self "d") 0.5)

let test_open_loop () =
  let sb due =
    {
      Loadgen.sb_index = 0; sb_tenant = "t"; sb_sample = 0; sb_resubmit = false;
      sb_due = due; sb_sent = nan; sb_fate = Loadgen.Pending;
    }
  in
  let entry =
    Wasai_campaign.Journal.of_outcome ~name:"x" ~elapsed:0.1
      {
        Wasai_core.Engine.out_flags = []; out_custom = []; out_exploits = [];
        out_branches = 0; out_timeline = []; out_rounds = 0; out_seeds_total = 0;
        out_adaptive_seeds = 0; out_transactions = 0; out_solver_sat = 0;
        out_imprecise = 0; out_solver = Wasai_smt.Solver.stats_zero;
        out_interesting = []; out_verdict_round = 0; out_final_budget = 0;
        out_truncated = 0; out_first_truncated = None;
      }
  in
  let late_one = sb 1.0 in
  late_one.Loadgen.sb_sent <- 1.3;
  late_one.Loadgen.sb_fate <- Loadgen.Answered { at = 2.0; cached = false; entry };
  expect "latency runs from the scheduled send, not the actual one"
    (close (Loadgen.latency late_one) 1.0 && close (Loadgen.late late_one) 0.3);
  let busy = sb 1.0 in
  busy.Loadgen.sb_sent <- 1.0;
  busy.Loadgen.sb_fate <- Loadgen.Refused;
  expect "BUSY counts as a failure" (Loadgen.failed busy && not (Loadgen.failed late_one));
  expect "BUSY misses every latency limit" (Loadgen.latency busy = infinity);
  let lat = List.map Loadgen.latency (busy :: List.init 29 (fun _ -> late_one)) in
  expect "a refused submission lands in the tail"
    ((Stats.tail lat).Stats.tl_value = 1.0 && Stats.percentile lat 100. = infinity);
  let plan () =
    Loadgen.plan ~seed:7L ~rate:40. ~count:400 ~tenants:[ "a"; "b" ] ~samples:400
      ~resubmit_share:0.25 ~gap:2.
  in
  let p = plan () in
  let key (s : Loadgen.submission) = (s.Loadgen.sb_tenant, s.Loadgen.sb_sample, s.Loadgen.sb_resubmit) in
  expect "the plan is a function of the seed" (List.map key p = List.map key (plan ()));
  let resubmits = List.filter (fun s -> s.Loadgen.sb_resubmit) p in
  expect "about a quarter of the late plan re-submits"
    (let n = List.length resubmits in n > 50 && n < 110);
  expect "a re-submission repeats a pair due at least the gap earlier"
    (List.for_all
       (fun (r : Loadgen.submission) ->
         List.exists
           (fun (f : Loadgen.submission) ->
             (not f.Loadgen.sb_resubmit) && f.Loadgen.sb_sample = r.Loadgen.sb_sample
             && f.Loadgen.sb_tenant = r.Loadgen.sb_tenant
             && r.Loadgen.sb_due -. f.Loadgen.sb_due >= 2. -. 1e-9)
           p)
       resubmits);
  expect "fresh submissions are distinct samples"
    (let fresh = List.filter (fun s -> not s.Loadgen.sb_resubmit) p in
     List.length (List.sort_uniq compare (List.map (fun s -> s.Loadgen.sb_sample) fresh))
     = List.length fresh)

(* The daemon's CPU time is read from /proc; read for this process, it
   must agree with [Unix.times] after a second of work. *)
let test_cpu_readers () =
  let pid = Unix.getpid () in
  let c0 = W.user_cpu () in
  let x = ref 0 in
  while W.user_cpu () -. c0 < 1.0 do
    for i = 1 to 100_000 do x := !x lxor i done
  done;
  ignore (Sys.opaque_identity !x);
  let proc = W.process_user_cpu pid and own = W.user_cpu () in
  expect "user CPU from /proc/<pid>/stat agrees with Unix.times"
    (Float.abs (proc -. own) < 0.05);
  expect "CPU from /proc/<pid>/task/*/schedstat covers the user CPU"
    (W.process_cpu pid >= own -. 0.05)

(* The same six files through a batch campaign and through the daemon
   must digest identically. *)
let test_serve_matches_batch () =
  let work = Printf.sprintf "selftest-%d" (Unix.getpid ()) in
  W.rm_rf work;
  Fun.protect
    ~finally:(fun () -> W.rm_rf work)
    (fun () ->
      let samples =
        W.write_corpus (Filename.concat work "corpus")
          (Wasai_benchgen.Corpus.coverage_set ~seed:11L ~count:6 ())
      in
      let targets = Wasai_campaign.Discover.dir (Filename.concat work "corpus") in
      let batch =
        W.campaign_pass ~jobs:2 ~journal:(Filename.concat work "journal")
          ~chunk:0 targets
      in
      let contracts =
        Array.of_list
          (List.map (fun s -> Wasai_serve.Client.contract_of_file s.W.sm_path) samples)
      in
      let daemon = W.start_daemon ~dir:(Filename.concat work "daemon") in
      let plan =
        Loadgen.plan ~seed:11L ~rate:50. ~count:6 ~tenants:[ "t" ] ~samples:6
          ~resubmit_share:0. ~gap:1.
      in
      let ol = (W.serve_pass ~daemon ~contracts plan).W.sv_loop in
      let served =
        List.filter_map
          (fun (s : Loadgen.submission) ->
            match s.Loadgen.sb_fate with Loadgen.Answered a -> Some a.entry | _ -> None)
          ol.W.ol_subs
      in
      expect "batch campaign journals all six targets"
        (batch.W.ps_error = None && List.length batch.W.ps_entries = 6);
      expect "the daemon answers all six submissions" (List.length served = 6);
      expect "serve and batch-campaign digests agree"
        (Outcome_digest.of_entries served = Outcome_digest.of_entries batch.W.ps_entries))

let () =
  test_tail ();
  test_f1 ();
  test_self_time ();
  test_open_loop ();
  test_cpu_readers ();
  test_serve_matches_batch ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
