(* Open-loop load generation: a fixed schedule of submissions, sent on
   time whatever the daemon's state, each timed from when it was due.
   The pure parts (plan, accounting) are separate from the socket loop so
   they can be tested without a daemon. *)

module Journal = Wasai_campaign.Journal

type fate =
  | Pending
  | Answered of { at : float; cached : bool; entry : Journal.entry }
  | Refused  (** [BUSY]: admission refused; not retried *)
  | Failed of string  (** [ERR] scoped to this submission *)

type submission = {
  sb_index : int;
  sb_tenant : string;
  sb_sample : int;  (** index into the workload's contract list *)
  sb_resubmit : bool;  (** re-sends a (tenant, name) answered earlier *)
  sb_due : float;  (** scheduled send time, seconds from the run start *)
  mutable sb_sent : float;
  mutable sb_fate : fate;
}

(* Fisher-Yates shuffle of [a] in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Submission [i] is due at [i / rate]: a fixed offered rate.  Fresh
   submissions take the samples in a seeded random order, so every class
   of the corpus is reached, and tenants take them alternately.  With
   probability [resubmit_share] a submission instead repeats a fresh one
   that was due at least [gap] seconds earlier, so its verdict has
   normally arrived and the daemon answers it from the tenant's journal
   cache. *)
let plan ~seed ~rate ~count ~tenants ~samples ~resubmit_share ~gap =
  let rng = Random.State.make [| Int64.to_int seed; 0x5e7e |] in
  let order = Array.init samples Fun.id in
  shuffle rng order;
  let ntenants = List.length tenants in
  let next_fresh = ref 0 in
  let fresh = ref [] in
  let lag = int_of_float (Float.ceil (gap *. rate)) in
  List.init count (fun i ->
      let due = float_of_int i /. rate in
      let older = List.filter (fun (j, _, _) -> j <= i - lag) !fresh in
      let resubmit =
        older <> [] && Random.State.float rng 1.0 < resubmit_share
      in
      let tenant, sample =
        if resubmit then
          let _, t, s =
            List.nth older (Random.State.int rng (List.length older))
          in
          (t, s)
        else begin
          if !next_fresh >= samples then
            invalid_arg "Loadgen.plan: corpus smaller than the fresh submissions";
          let t = List.nth tenants (!next_fresh mod ntenants) in
          let s = order.(!next_fresh) in
          incr next_fresh;
          fresh := (i, t, s) :: !fresh;
          (t, s)
        end
      in
      {
        sb_index = i;
        sb_tenant = tenant;
        sb_sample = sample;
        sb_resubmit = resubmit;
        sb_due = due;
        sb_sent = nan;
        sb_fate = Pending;
      })

(* Latency from the scheduled send time: a stall in the generator or the
   daemon is charged to every submission it delays.  Anything not
   answered misses every limit. *)
let latency sb =
  match sb.sb_fate with
  | Answered a -> a.at -. sb.sb_due
  | Pending | Refused | Failed _ -> infinity

let failed sb =
  match sb.sb_fate with Answered _ -> false | _ -> true

let late sb = if Float.is_nan sb.sb_sent then 0. else sb.sb_sent -. sb.sb_due

(* Settle the oldest sent, still-pending submission of [name] (of
   [tenant], when the response names one) with [fate]. *)
let resolve subs ~name_of ?tenant ~name fate =
  let matched =
    List.find_opt
      (fun sb ->
        (match sb.sb_fate with Pending -> true | _ -> false)
        && (not (Float.is_nan sb.sb_sent))
        && (match tenant with None -> true | Some t -> t = sb.sb_tenant)
        && name_of sb = name)
      subs
  in
  Option.iter (fun sb -> sb.sb_fate <- fate) matched;
  matched
