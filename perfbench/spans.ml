(* In-memory span recording for the traced run.  Spans are taken from
   the benchmark's own code around calls into the layers; nothing inside
   the program is touched.  Recording takes a lock because campaign
   workers call [sp_load] closures from their own domains. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** [-1] for a root span *)
  sp_group : string;  (** the target or submission the span belongs to *)
  sp_start : float;
  sp_stop : float;
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 0; spans = [] }

(* Reserve an id before the span's children run, so they can name it as
   their parent. *)
let fresh_id t =
  Mutex.protect t.lock (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let add t (s : span) = Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)

let record t ?(id = -1) ?(parent = -1) ~group ~name start stop =
  let id = if id >= 0 then id else fresh_id t in
  add t
    { sp_id = id; sp_name = name; sp_parent = parent; sp_group = group;
      sp_start = start; sp_stop = stop };
  id

(* Time [f] as one span; the span is recorded even when [f] raises. *)
let time t ?id ?parent ~group ~name f =
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      ignore (record t ?id ?parent ~group ~name start (Unix.gettimeofday ())))
    f

let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* A span's self time: its duration minus the part of it that its
   children cover.  Children may overlap one another (parallel workers),
   so they are merged as intervals rather than summed. *)
let self_time all (s : span) =
  let children =
    List.filter_map
      (fun c ->
        if c.sp_parent = s.sp_id then Some (c.sp_start, c.sp_stop) else None)
      all
  in
  let d = s.sp_stop -. s.sp_start in
  d -. covered ~lo:s.sp_start ~hi:s.sp_stop children

(* Per span name: (name, summed self seconds, span count), by name. *)
let self_by_name all =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self, n =
        Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.sp_name)
      in
      Hashtbl.replace tbl s.sp_name (self +. self_time all s, n + 1))
    all;
  List.sort compare
    (Hashtbl.fold (fun name (self, n) acc -> (name, self, n) :: acc) tbl [])

let total_of_name all name =
  List.fold_left
    (fun (sum, n) s ->
      if s.sp_name = name then (sum +. (s.sp_stop -. s.sp_start), n + 1)
      else (sum, n))
    (0., 0) all

let write all path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "id\tparent\tgroup\tname\tstart\tstop\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%s\t%.6f\t%.6f\n" s.sp_id s.sp_parent
            s.sp_group s.sp_name s.sp_start s.sp_stop)
        all)
