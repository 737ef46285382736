(* The two workloads, driven through the entry points the CLI uses:
   [Discover.dir] + [Campaign.run] for [wasai campaign run], and the
   [wasai serve] daemon itself, spoken to over its wire grammar as
   [wasai submit] does. *)

module BG = Wasai_benchgen
module Engine = Wasai_core.Engine
module Scanner = Wasai_core.Scanner
module Campaign = Wasai_campaign.Campaign
module Discover = Wasai_campaign.Discover
module Journal = Wasai_campaign.Journal
module Client = Wasai_serve.Client
module Wire = Wasai_serve.Wire
module Metrics = Wasai_support.Metrics
module Name = Wasai_eosio.Name

let now = Unix.gettimeofday

(* The CLI's default round budget ([--rounds] of [campaign run] and
   [serve]). *)
let rounds = 60

(* Figure 3 uses 100 coverage contracts, as the paper does.  A run walks
   [coverage_chunks] distinct sets of that size, one campaign each, so
   its figures rest on more contracts than one set holds: a target's CPU
   time is heavy-tailed (p90 about 2.5 times the median), and the sum
   over one set moves too much from seed to seed. *)
let coverage_count = 100
let coverage_chunks = 6

(* Serve traffic: a fixed offered rate of about a sixth of one worker's
   capacity on the Table 4 corpus (one worker clears about 59 targets/s
   at 60 rounds on a 2-core host), split over two tenants, with a
   quarter of the submissions repeating a name already answered.  The
   host's speed swings by up to threefold over minutes; at 70% of
   capacity some seeds built multi-second backlogs, and even at a third
   queueing multiplied a slow phase's latency several times over. *)
let serve_rate = 10.
let tenants = [ "alice"; "bob" ]
let resubmit_share = 0.25
let resubmit_gap = 2.0

(* Per-tenant admission depth: deep enough that only a multi-second
   stall refuses a submission, so a refusal is a real finding. *)
let serve_depth = 64
let drain_timeout = 30.

(* One PING per this many submissions, for the wire round trip. *)
let ping_every = 10

let engine_config = Engine.make_config ~rounds ~feedback:true ()

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The first line of a file, for /proc files (their length reads 0). *)
let first_line path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)

(* ------------------------------------------------------------------ *)
(* CPU time                                                             *)
(* ------------------------------------------------------------------ *)

(* The benchmark times the program in user-mode CPU seconds.  On a
   shared virtual host the wall clock also counts the time the
   hypervisor hands this guest's CPUs to other guests (steal); on a
   2-vCPU host that made the program's wall-clock speed swing threefold
   for minutes at a time.  A Linux guest with paravirtual steal
   accounting leaves steal out of a process's CPU time.  System time is
   left out too: the kernel's time for the same file writes grew tenfold
   from one run to the next while the file system worked off the
   previous run's deletions. *)

(* User CPU seconds of this process, every thread together. *)
let user_cpu () = (Unix.times ()).Unix.tms_utime

(* User CPU seconds of process [pid] so far, from /proc/[pid]/stat, in
   clock ticks of 10 ms. *)
let process_user_cpu pid =
  let line = first_line (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command name in parentheses may hold spaces; fields count on
     from the closing one, and utime is the 14th field. *)
  let rest =
    let i = String.rindex line ')' + 2 in
    String.sub line i (String.length line - i)
  in
  float_of_string (List.nth (String.split_on_char ' ' rest) 11) /. 100.

(* CPU seconds, user and system, process [pid] has run so far: the
   nanoseconds of each of its threads in /proc/[pid]/task/*/schedstat.
   Finer than [process_user_cpu], for the daemon's short start-up. *)
let process_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match first_line (Filename.concat (Filename.concat dir tid) "schedstat") with
      | line -> acc +. (Scanf.sscanf line "%Ld" Int64.to_float /. 1e9)
      | exception (Sys_error _ | End_of_file) -> acc (* the thread has just exited *))
    0. (Sys.readdir dir)

(* Steal and total ticks of all CPUs so far, from /proc/stat's "cpu"
   line, for the report's note on how contended the host was. *)
let host_ticks () =
  match String.split_on_char ' ' (first_line "/proc/stat") with
  | "cpu" :: fields ->
      let ticks = List.filter_map int_of_string_opt fields in
      let steal = match List.nth_opt ticks 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 ticks)
  | _ -> (0, 0)
  | exception (Sys_error _ | End_of_file) -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.

(* ------------------------------------------------------------------ *)
(* Corpora                                                              *)
(* ------------------------------------------------------------------ *)

type sample = {
  sm_name : string;  (** generated account = file basename *)
  sm_path : string;  (** the [.wasm] file *)
  sm_flag : Scanner.flag;  (** the class the sample was planted for *)
  sm_truth : bool;  (** vulnerable with respect to [sm_flag] *)
}

let flag_of_class = function
  | BG.Contracts.Fake_eos -> Scanner.Fake_eos
  | BG.Contracts.Fake_notif -> Scanner.Fake_notif
  | BG.Contracts.Miss_auth -> Scanner.Miss_auth
  | BG.Contracts.Blockinfo_dep -> Scanner.Blockinfo_dep
  | BG.Contracts.Rollback -> Scanner.Rollback
  | BG.Contracts.State_io -> Scanner.State_io
  | BG.Contracts.Fake_transfer -> Scanner.Fake_transfer
  | BG.Contracts.Asset_overflow -> Scanner.Asset_overflow

(* Each sample becomes [<account>.wasm] plus an [<account>.abi] sidecar,
   so the program sees only files, as it does from the CLI. *)
let write_corpus dir (samples : BG.Corpus.sample list) =
  Wasai_support.Fsutil.mkdir_p dir;
  let written =
    List.map
      (fun (s : BG.Corpus.sample) ->
        let name = Name.to_string s.BG.Corpus.smp_spec.BG.Contracts.sp_account in
        let path = Filename.concat dir (name ^ ".wasm") in
        write_file path (Wasai_wasm.Encode.encode s.BG.Corpus.smp_module);
        write_file
          (Filename.concat dir (name ^ ".abi"))
          (Wasai_eosio.Abi.to_text s.BG.Corpus.smp_abi);
        {
          sm_name = name;
          sm_path = path;
          sm_flag = flag_of_class s.BG.Corpus.smp_class;
          sm_truth = s.BG.Corpus.smp_truth;
        })
      samples
  in
  let distinct = List.sort_uniq compare (List.map (fun s -> s.sm_name) written) in
  if List.length distinct <> List.length written then
    failwith "corpus: two generated samples share an account name";
  written

type chunk = {
  ch_dir : string;
  ch_samples : sample list;
  ch_targets : Campaign.target_spec list;  (** [Discover.dir] of the chunk *)
}

(* Chunk [i] holds samples [i * 100 .. i * 100 + 99] of the seed's
   coverage set, so chunk 0 is the seed's Figure 3 set. *)
let coverage_chunks_of ~dir ~seed =
  let all =
    Array.of_list
      (BG.Corpus.coverage_set ~seed ~count:(coverage_count * coverage_chunks) ())
  in
  List.init coverage_chunks (fun i ->
      let cdir = Filename.concat dir (Printf.sprintf "chunk-%d" i) in
      let samples =
        write_corpus cdir (Array.to_list (Array.sub all (i * coverage_count) coverage_count))
      in
      { ch_dir = cdir; ch_samples = samples; ch_targets = Discover.dir cdir })

(* The Table 4 corpus at the smallest composition-preserving scale that
   still holds every fresh submission of a [count]-long plan. *)
let ground_truth_corpus ~dir ~seed ~fresh =
  let scale = max 1 (min 20 (3340 / max 1 fresh)) in
  let rec fit scale =
    let samples = BG.Corpus.ground_truth ~seed ~scale () in
    if List.length samples >= fresh || scale = 1 then samples else fit (scale - 1)
  in
  write_corpus dir (fit scale)

(* Pooled confusion matrix of [entries] against the planted truth. *)
let confusion samples (entries : Journal.entry list) =
  let by_name = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_name s.sm_name s) samples;
  let c = Metrics.empty () in
  List.iter
    (fun (e : Journal.entry) ->
      match Hashtbl.find_opt by_name e.Journal.je_name with
      | Some s ->
          let predicted =
            Option.value ~default:false (List.assoc_opt s.sm_flag e.Journal.je_flags)
          in
          Metrics.record c ~truth:s.sm_truth ~predicted
      | None -> ())
    entries;
  c

(* ------------------------------------------------------------------ *)
(* Campaign workload (deep)                                           *)
(* ------------------------------------------------------------------ *)

type pass = {
  ps_chunk : int;
  ps_attempted : int;
  ps_entries : Journal.entry list;  (** completed targets, by name *)
  ps_target_cpu : (string * float) list;
      (** per target, user CPU seconds from the previous journaled verdict (or
          the [Campaign.run] call) to its own: its load, fuzz and journal
          line when [jobs = 1] *)
  ps_cpu : float;  (** user CPU seconds of the [Campaign.run] call *)
  ps_wall : float;  (** campaign makespan *)
  ps_error : string option;  (** the exception [Campaign.run] raised *)
}

(* Benchmark-side spans of one traced campaign pass: [Discover.dir], the
   [Campaign.run] call, and per target its load, fuzz and journal
   phases, grouped by target name. *)
type campaign_trace = {
  ct_spans : Spans.t;
  ct_run : int;  (** reserved id of the [campaign.run] span *)
  ct_loads : (string, float * float) Hashtbl.t;
  ct_lock : Mutex.t;
}

let traced_targets tr (targets : Campaign.target_spec list) =
  List.map
    (fun (spec : Campaign.target_spec) ->
      {
        spec with
        Campaign.sp_load =
          (fun () ->
            let start = now () in
            let target = spec.Campaign.sp_load () in
            let stop = now () in
            Mutex.protect tr.ct_lock (fun () ->
                Hashtbl.replace tr.ct_loads spec.Campaign.sp_name (start, stop));
            target);
      })
    targets

let campaign_pass ?trace ~jobs ~journal ~chunk targets =
  let targets =
    match trace with Some tr -> traced_targets tr targets | None -> targets
  in
  let t0 = now () in
  let cpu0 = user_cpu () in
  let last_cpu = ref cpu0 in
  let target_cpu = ref [] in
  (* [progress] runs under the campaign lock, once per journaled target. *)
  let progress (e : Journal.entry) =
    let t = now () in
    let c = user_cpu () in
    target_cpu := (e.Journal.je_name, c -. !last_cpu) :: !target_cpu;
    last_cpu := c;
    match trace with
    | None -> ()
    | Some tr ->
        let name = e.Journal.je_name in
        let load_start, load_stop =
          Mutex.protect tr.ct_lock (fun () -> Hashtbl.find tr.ct_loads name)
        in
        let sp = tr.ct_spans in
        let root =
          Spans.record sp ~parent:tr.ct_run ~group:name ~name:"campaign.target"
            load_start t
        in
        let fuzz_stop = Float.min t (load_stop +. e.Journal.je_elapsed) in
        ignore
          (Spans.record sp ~parent:root ~group:name ~name:"campaign.load"
             load_start load_stop);
        ignore
          (Spans.record sp ~parent:root ~group:name ~name:"engine.fuzz"
             load_stop fuzz_stop);
        ignore
          (Spans.record sp ~parent:root ~group:name ~name:"campaign.journal"
             fuzz_stop t)
  in
  let cfg =
    Campaign.make_config ~jobs ~journal ~progress
      ~telemetry:(trace <> None)
      ~engine:engine_config ()
  in
  let attempted = List.length targets in
  let result =
    match Campaign.run cfg targets with
    | r ->
        {
          ps_chunk = chunk;
          ps_attempted = attempted;
          ps_entries = r.Campaign.cr_results;
          ps_target_cpu = !target_cpu;
          ps_cpu = user_cpu () -. cpu0;
          ps_wall = r.Campaign.cr_wall;
          ps_error = None;
        }
    | exception e ->
        {
          ps_chunk = chunk;
          ps_attempted = attempted;
          ps_entries = [];
          ps_target_cpu = !target_cpu;
          ps_cpu = user_cpu () -. cpu0;
          ps_wall = now () -. t0;
          ps_error = Some (Printexc.to_string e);
        }
  in
  (match trace with
   | Some tr ->
       ignore
         (Spans.record tr.ct_spans ~id:tr.ct_run ~group:"" ~name:"campaign.run" t0
            (t0 +. result.ps_wall))
   | None -> ());
  result

(* One campaign per chunk, cycling through the chunks, until [seconds]
   have been measured and every chunk has run once; every campaign is
   fresh (new journal). *)
let campaign_measure ~work ~jobs ~seconds chunks =
  let chunks = Array.of_list chunks in
  let start = now () in
  let rec go k acc =
    let journal = Filename.concat work (Printf.sprintf "journal-%d" k) in
    let chunk = k mod Array.length chunks in
    let p =
      campaign_pass ~jobs ~journal ~chunk chunks.(chunk).ch_targets
    in
    let acc = p :: acc in
    if now () -. start >= seconds && k + 1 >= Array.length chunks then List.rev acc
    else go (k + 1) acc
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Serve workload                                                       *)
(* ------------------------------------------------------------------ *)

(* Field [field] of /proc/[pid]/status ([pid] = "self" for this
   process), without its label; [None] where /proc is absent. *)
let proc_status ~pid field =
  let prefix = field ^ ":" in
  let n = String.length prefix in
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec find () =
            match input_line ic with
            | exception End_of_file -> None
            | l when String.length l > n && String.sub l 0 n = prefix ->
                Some (String.trim (String.sub l n (String.length l - n)))
            | _ -> find ()
          in
          find ())

(* Peak resident set of process [pid] in MB, from its VmHWM line
   ("1234 kB"); 0 where /proc is absent. *)
let peak_rss_mb pid =
  match proc_status ~pid "VmHWM" with
  | Some v -> (
      match Scanf.sscanf v "%d kB" Fun.id with
      | kb -> float_of_int kb /. 1024.
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> 0.)
  | None -> 0.

(* The daemon is the [wasai serve] binary built beside the benchmark, in
   a process of its own.  Run in this process instead, the generator's
   domain joined every stop-the-world minor collection of the daemon's
   worker: per-target time rose by a fifth and its run-to-run spread
   grew fourfold. *)
type daemon = { dm_pid : int; dm_socket : string }

let wasai_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "wasai.exe")

let stop_daemon d =
  (try Unix.kill d.dm_pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.dm_pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.dm_pid Sys.sigkill;
        ignore (Unix.waitpid [] d.dm_pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

(* Start a daemon with one worker and the CLI's default budget, and
   return once its socket accepts.  [socket] is relative to the checkout,
   which keeps it under the 104-byte Unix-socket path limit wherever the
   checkout is. *)
let start_daemon ~dir =
  Wasai_support.Fsutil.mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let exe = wasai_exe () in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--root"; Filename.concat dir "root"; "--socket"; socket;
             "--jobs"; "1"; "--depth"; string_of_int serve_depth;
             "--rounds"; string_of_int rounds |]
          Unix.stdin log log)
  in
  let d = { dm_pid = pid; dm_socket = socket } in
  let deadline = now () +. 30. in
  let rec ready () =
    match connect socket with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ when now () < deadline -> ()
         | 0, _ -> failwith "serve: daemon did not open its socket within 30 s"
         | _ -> failwith "serve: daemon exited at start-up (see daemon.log)");
        Unix.sleepf 0.005;
        ready ()
  in
  (try ready () with e -> stop_daemon d; raise e);
  d

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

type open_loop = {
  ol_subs : Loadgen.submission list;
  ol_metrics : string option;  (** the daemon's METRICS body at the end *)
  ol_start : float;  (** absolute time submission 0 was due *)
  ol_last : float;  (** seconds from start to the last response *)
  ol_pings : float list;  (** PING round trips, seconds *)
  ol_busy : int;
  ol_error : string option;  (** protocol failure that ended the loop *)
}

(* Send [plan] on schedule over one connection while reading responses;
   then wait up to [drain_timeout] for the rest.  One domain: a select
   whose timeout is the time left to the next due submission. *)
let run_open_loop ?spans ~socket ~(contracts : Client.contract array) plan =
  let fd = connect socket in
  let name_of (sb : Loadgen.submission) = contracts.(sb.Loadgen.sb_sample).Client.ct_name in
  let queue = Array.of_list plan in
  let n = Array.length queue in
  let ids = Array.make n (-1) in
  let start = now () +. 0.05 in
  let next = ref 0 in
  let inbuf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let pings = ref [] and ping_sent = ref None in
  let busy = ref 0 in
  let error = ref None in
  let last = ref 0. in
  let metrics = ref None in
  let pending () =
    List.exists
      (fun (sb : Loadgen.submission) ->
        match sb.Loadgen.sb_fate with Loadgen.Pending -> true | _ -> false)
      plan
  in
  let group sb = Printf.sprintf "%s/%s#%d" sb.Loadgen.sb_tenant (name_of sb) sb.Loadgen.sb_index in
  let send_one (sb : Loadgen.submission) =
    let c = contracts.(sb.Loadgen.sb_sample) in
    let line =
      Wire.line_of_request
        (Wire.Submit
           {
             rq_tenant = sb.Loadgen.sb_tenant;
             rq_name = c.Client.ct_name;
             rq_wasm = c.Client.ct_wasm;
             rq_abi = c.Client.ct_abi;
             rq_slices = 1;
           })
      ^ "\n"
    in
    let t = now () in
    sb.Loadgen.sb_sent <- t -. start;
    write_all fd line;
    match spans with
    | Some sp ->
        let id = Spans.fresh_id sp in
        ids.(sb.Loadgen.sb_index) <- id;
        ignore
          (Spans.record sp ~parent:id ~group:(group sb) ~name:"serve.send" t (now ()))
    | None -> ()
  in
  let resolve ?tenant ~name fate =
    Loadgen.resolve plan ~name_of ?tenant ~name (fate (now ()))
  in
  let handle line =
    let t_recv = now () in
    let matched =
      match Wire.response_of_line line with
      | Error reason ->
          error := Some ("malformed response: " ^ reason);
          None
      | Ok (Wire.Verdict { rp_tenant; rp_kind; rp_entry; _ }) ->
          resolve ~tenant:rp_tenant ~name:rp_entry.Journal.je_name (fun t ->
              Loadgen.Answered
                { at = t -. start; cached = rp_kind = Wire.Cached; entry = rp_entry })
      | Ok (Wire.Busy { rp_tenant; rp_name; _ }) ->
          incr busy;
          resolve ~tenant:rp_tenant ~name:rp_name (fun _ -> Loadgen.Refused)
      | Ok (Wire.Err { rp_name = Some name; rp_reason }) ->
          resolve ~name (fun _ -> Loadgen.Failed rp_reason)
      | Ok (Wire.Err { rp_name = None; rp_reason }) ->
          error := Some ("protocol error: " ^ rp_reason);
          None
      | Ok (Wire.Pong _) ->
          Option.iter (fun t0 -> pings := (t_recv -. t0) :: !pings) !ping_sent;
          ping_sent := None;
          None
      | Ok (Wire.MetricsReply { rp_body }) ->
          metrics := Some rp_body;
          None
      | Ok _ -> None
    in
    if matched <> None then last := now () -. start;
    match (spans, matched) with
    | Some sp, Some sb when ids.(sb.Loadgen.sb_index) >= 0 ->
        ignore
          (Spans.record sp ~parent:ids.(sb.Loadgen.sb_index) ~group:(group sb)
             ~name:"serve.receive" t_recv (now ()))
    | _ -> ()
  in
  let rec drain_lines () =
    let s = Buffer.contents inbuf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear inbuf;
        Buffer.add_string inbuf (String.sub s (i + 1) (String.length s - i - 1));
        handle (String.sub s 0 i);
        drain_lines ()
    | None -> ()
  in
  let read_some timeout =
    match Unix.select [ fd ] [] [] (Float.max 0. timeout) with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> error := Some "daemon closed the connection"
        | k ->
            Buffer.add_subbytes inbuf chunk 0 k;
            drain_lines ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let deadline = ref infinity in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      while not !finished do
        while !next < n && start +. queue.(!next).Loadgen.sb_due <= now () do
          let sb = queue.(!next) in
          send_one sb;
          if sb.Loadgen.sb_index mod ping_every = 0 && !ping_sent = None then begin
            ping_sent := Some (now ());
            write_all fd (Wire.line_of_request Wire.Ping ^ "\n")
          end;
          incr next
        done;
        if !next >= n && !deadline = infinity then
          deadline := now () +. drain_timeout;
        if !error <> None || (!next >= n && ((not (pending ())) || now () > !deadline))
        then finished := true
        else if !next < n then read_some (start +. queue.(!next).Loadgen.sb_due -. now ())
        else read_some (Float.min 0.2 (!deadline -. now ()))
      done;
      (* The daemon's stage aggregates, for the traced run's stage rows. *)
      if !error = None then begin
        write_all fd (Wire.line_of_request Wire.Metrics ^ "\n");
        let until = now () +. 10. in
        while !metrics = None && !error = None && now () < until do
          read_some 0.2
        done
      end);
  (match spans with
   | Some sp ->
       List.iter
         (fun (sb : Loadgen.submission) ->
           if ids.(sb.Loadgen.sb_index) >= 0 then
             let stop =
               match sb.Loadgen.sb_fate with
               | Loadgen.Answered a -> start +. a.at
               | _ -> start +. !last
             in
             ignore
               (Spans.record sp ~id:ids.(sb.Loadgen.sb_index) ~group:(group sb)
                  ~name:"serve.submission" (start +. sb.Loadgen.sb_due) stop))
         plan
   | None -> ());
  {
    ol_subs = plan;
    ol_metrics = !metrics;
    ol_start = start;
    ol_last = !last;
    ol_pings = !pings;
    ol_busy = !busy;
    ol_error = !error;
  }

type served = {
  sv_loop : open_loop;
  sv_cpu : float;  (** the daemon's user CPU seconds over the open loop *)
  sv_rss : float;  (** the daemon's peak resident set, MB *)
}

(* Run [plan] against [daemon], then stop it.  Returns the generator's
   view and the daemon's user CPU time and peak resident set, read
   before it exits. *)
let serve_pass ?spans ~daemon ~contracts plan =
  Fun.protect
    ~finally:(fun () -> stop_daemon daemon)
    (fun () ->
      let cpu0 = process_user_cpu daemon.dm_pid in
      let ol = run_open_loop ?spans ~socket:daemon.dm_socket ~contracts plan in
      {
        sv_loop = ol;
        sv_cpu = process_user_cpu daemon.dm_pid -. cpu0;
        sv_rss = peak_rss_mb (string_of_int daemon.dm_pid);
      })

(* Stage seconds from a METRICS body's [wasai_stage_seconds_total]
   lines, by stage name. *)
let stage_seconds body =
  List.filter_map
    (fun line ->
      match
        Scanf.sscanf line "wasai_stage_seconds_total{stage=%S} %f" (fun st v -> (st, v))
      with
      | row -> Some row
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
    (String.split_on_char '\n' body)

(* Fresh submissions never outnumber submissions, so a corpus of
   [count] samples always suffices. *)
let serve_count ~seconds = max 1 (int_of_float (Float.round (serve_rate *. seconds)))

let serve_plan ~seed ~seconds ~samples =
  Loadgen.plan ~seed ~rate:serve_rate ~count:(serve_count ~seconds) ~tenants ~samples ~resubmit_share
    ~gap:resubmit_gap

