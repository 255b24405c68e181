(** The per-site write-ahead log, over any record codec.

    The paper assumes each site has a local log and forces a record to
    it before acting; the recovery protocol reads the same log.  This
    module is that log, once: records go through the codec the record
    module supplies into a scratch buffer, are framed with a length
    prefix + CRC-32 ({!Disk.Frame}) in place on a simulated {!Disk} whose sync
    barrier defines what a crash preserves.  {!S.append} alone is not
    durable — a site must {!S.force} (append + sync) before any
    externally visible action, the paper's forced write.  On crash the
    log replays itself from the durable image, truncating at the first
    invalid frame and reporting what was repaired.

    {!Engine.Wal} (the protocol engine and Paxos Commit) and
    {!Kv.Kv_wal} (the kv database) are instances: each supplies its
    record type and codec, and adds the queries its recovery needs. *)

(** What a log instance needs from its records: a codec whose
    [of_bytes] is a total inverse of [encode] — [of_bytes] of what
    [encode b r] appended to an empty [b] is [Ok r], and any truncated
    or mangled payload is an [Error], never an exception. *)
module type RECORD = sig
  type record

  val encode : Buffer.t -> record -> unit
  val of_bytes : Bytes.t -> (record, string) result
end

module type S = sig
  type record

  type repair = {
    survived : int;  (** records readable from the durable image after the crash *)
    lost_records : int;  (** appended records that did not survive *)
    dropped_bytes : int;  (** bytes the recovery scan cut from the durable image *)
    reason : string option;
        (** why the scan truncated ([None]: clean loss at the sync boundary) *)
  }

  type t

  (** Group-commit knobs: at most [max_batch] records per shared sync,
      at most [max_wait] simulated seconds of waiting for stragglers
      while the device is idle. *)
  type group_commit = Batch.group = { max_batch : int; max_wait : float }

  val create :
    ?seed:int -> ?durable:bool -> ?group_commit:group_commit -> ?sync_latency:float -> unit -> t
  (** [durable:false] is the in-memory log (sync free, crash lossless),
      kept as the benchmark baseline and the reference the property
      tests compare the durable log against.  [seed] feeds only the
      disk's private fault stream.  [group_commit] coalesces concurrent
      {!force_k} calls into shared syncs; [sync_latency] charges
      simulated seconds per sync (the cost group commit amortizes).
      With neither (the default) every force is a synchronous sync. *)

  val attach :
    ?on_drain:(unit -> unit) ->
    t ->
    metrics:Metrics.t ->
    schedule:(float -> (unit -> unit) -> unit) ->
    unit
  (** Wire the log into a run: forces count into [metrics] (wal_forces,
      wal_group_flushes, group_batch_size) and deferred flushes ride
      [schedule] — pass a site-bound timer so pending batches die with
      the site.  [on_drain] fires after each batch's callbacks complete
      (the kv pipelining admission gate refills there). *)

  val append : t -> record -> unit
  (** Volatile until the next {!sync}. *)

  val sync : t -> unit

  val force : t -> record -> unit
  (** [append] + [sync]: the paper's "force a record to stable storage".
      With a batcher armed, flushes through synchronously (draining the
      queue ahead of it first). *)

  val force_k : t -> record -> (unit -> unit) -> unit
  (** Asynchronous force: append now, run the callback once the record
      is on stable storage.  Equals [force t r; k ()] on the fast path;
      under group commit / sync latency the callback waits for the
      covering batch, and a crash in between loses both record and
      callback. *)

  val after_durable : t -> (unit -> unit) -> unit
  (** Run the callback once everything appended so far is durable —
      immediately when nothing is pending.  For reply-from-log paths
      that must not expose a not-yet-durable record. *)

  val pending_forces : t -> int
  (** Forces whose completion callback has not yet fired. *)

  val batched : t -> bool
  (** A batcher is armed (group commit or sync latency): [force_k]
      defers its callback.  Otherwise [force_k t r k] is [force t r; k ()],
      and a caller may skip building [k]. *)

  val crash : t -> repair option
  (** Lose the unsynced tail (with whatever storage faults are armed),
      rescan the durable image, truncate at the first frame that fails
      its checksum or does not decode, and rebuild the in-memory view
      from what survived — after this the volatile view {e is} the
      durable view.  [Some repair] iff anything was lost. *)

  val set_faults : t -> Disk.injection list -> unit
  val disk : t -> Disk.t option

  val repairs : t -> repair list
  (** Oldest first; one entry per crash that lost records or bytes. *)

  val records : t -> record list
  (** Oldest first. *)

  val iter_newest_first : t -> (record -> unit) -> unit
  (** Visit the live view, newest record first, without copying it. *)

  val length : t -> int

  (** Stable storage for a whole simulated system: one log per site,
      surviving that site's crashes.  Each site's disk gets a private
      fault stream seeded by site id, independent of the world RNG and
      of every other disk. *)
  module Store : sig
    type wal = t
    type t

    val create :
      ?durable:bool -> ?group_commit:group_commit -> ?sync_latency:float -> n_sites:int -> unit -> t

    val install : t -> 'msg World.t -> disk_faults:(World.site * Disk.injection) list -> unit
    (** Arm each site's disk with its [(site, injection)] faults and
        register the crash hook that takes a site's log down with it:
        every repair counts into [wal_repairs] and prints a
        [site N wal repair: ...] trace line.  Install before any other
        crash hook that reads the logs. *)

    val log : t -> site:World.site -> wal
    val sites : t -> World.site list
    val iter : (World.site -> wal -> unit) -> t -> unit
    val fold : ('a -> World.site -> wal -> 'a) -> 'a -> t -> 'a
  end
end

module Make (R : RECORD) : S with type record := R.record = struct
  let l_wal_forces = Metrics.label "wal_forces"
  let l_wal_group_flushes = Metrics.label "wal_group_flushes"
  let l_group_batch_size = Metrics.label "group_batch_size"
  let l_wal_repairs = Metrics.label "wal_repairs"

  type repair = {
    survived : int;
    lost_records : int;
    dropped_bytes : int;
    reason : string option;
  }

  type mode = Memory | Durable of { disk : Disk.t; scratch : Buffer.t }

  type group_commit = Batch.group = { max_batch : int; max_wait : float }

  type t = {
    mutable cache : R.record list;  (** newest first — the live (volatile) view of the log *)
    mode : mode;
    mutable repair_log : repair list;  (** newest first; one entry per crash that lost anything *)
    batch : Batch.t option;
        (** group-commit batcher over the disk's sync barrier; [None] on
            the fast path (no group, zero sync latency) where every force
            is a synchronous sync *)
    mutable metrics : Metrics.t option;
  }

  let create ?(seed = 0) ?(durable = true) ?group_commit ?(sync_latency = 0.0) () =
    let mode = if durable then Durable { disk = Disk.create ~seed (); scratch = Buffer.create 32 } else Memory in
    let batch =
      match mode with
      | Memory -> None
      | Durable { disk; _ } ->
          if group_commit = None && sync_latency = 0.0 then None
          else
            Some (Batch.create ?group:group_commit ~sync_latency ~sync:(fun () -> Disk.sync disk) ())
    in
    { cache = []; mode; repair_log = []; batch; metrics = None }

  let attach ?on_drain t ~metrics ~schedule =
    t.metrics <- Some metrics;
    match t.batch with
    | None -> ()
    | Some b ->
        Batch.attach b ~schedule
          ~on_flush:(fun ~batch ->
            Metrics.bump metrics l_wal_group_flushes;
            Metrics.sample metrics l_group_batch_size (float_of_int batch))
          ?on_drain ()

  let count_force t = match t.metrics with None -> () | Some m -> Metrics.bump m l_wal_forces

  let append t r =
    t.cache <- r :: t.cache;
    match t.mode with
    | Memory -> ()
    | Durable { disk; scratch } ->
        Buffer.clear scratch;
        R.encode scratch r;
        Disk.write_frame disk scratch

  let sync t = match t.mode with Memory -> () | Durable { disk; _ } -> Disk.sync disk

  let force t r =
    count_force t;
    append t r;
    match t.batch with None -> sync t | Some b -> Batch.flush_now b

  let force_k t r k =
    count_force t;
    append t r;
    match t.batch with
    | None ->
        sync t;
        k ()
    | Some b -> Batch.submit b k

  let after_durable t k = match t.batch with None -> k () | Some b -> Batch.barrier b k
  let pending_forces t = match t.batch with None -> 0 | Some b -> Batch.pending b
  let batched t = t.batch <> None

  let set_faults t injections =
    match t.mode with Memory -> () | Durable { disk; _ } -> Disk.set_faults disk injections

  let disk t = match t.mode with Memory -> None | Durable { disk; _ } -> Some disk

  let crash t =
    (match t.batch with Some b -> Batch.crash b | None -> ());
    match t.mode with
    | Memory -> None
    | Durable { disk; _ } ->
        let before = List.length t.cache in
        Disk.crash disk;
        let image = Disk.durable_contents disk in
        let payloads, frame_repair = Disk.Frame.scan image in
        (* a frame whose checksum passes but whose payload does not decode
           would be a codec bug, not a storage fault; treat it like
           corruption all the same and truncate there *)
        let rec decode acc kept_bytes = function
          | [] -> (acc, kept_bytes, None)
          | p :: rest -> (
              match R.of_bytes p with
              | Ok r -> decode (r :: acc) (kept_bytes + Disk.Frame.header_len + Bytes.length p) rest
              | Error e -> (acc, kept_bytes, Some (Printf.sprintf "undecodable record: %s" e)))
        in
        let rev_records, kept_bytes, decode_err = decode [] 0 payloads in
        (* cut the disk back to the valid prefix, so post-recovery appends
           land after well-formed frames *)
        Disk.truncate disk kept_bytes;
        t.cache <- rev_records;
        let survived = List.length rev_records in
        let repair =
          {
            survived;
            lost_records = before - survived;
            dropped_bytes = Bytes.length image - kept_bytes;
            reason =
              (match decode_err with Some _ -> decode_err | None -> frame_repair.Disk.Frame.reason);
          }
        in
        if repair.lost_records > 0 || repair.dropped_bytes > 0 then begin
          t.repair_log <- repair :: t.repair_log;
          Some repair
        end
        else None

  let repairs t = List.rev t.repair_log
  let records t = List.rev t.cache
  let iter_newest_first t f = List.iter f t.cache
  let length t = List.length t.cache

  module Store = struct
    type wal = t
    type nonrec t = wal array (* index = site - 1 *)

    (* each site's disk gets its own fault stream, seeded by site id:
       independent of the world RNG and of every other disk *)
    let create ?(durable = true) ?group_commit ?(sync_latency = 0.0) ~n_sites () : t =
      Array.init n_sites (fun i -> create ~seed:(i + 1) ~durable ?group_commit ~sync_latency ())

    (* a crash takes the log down with the site: the unsynced tail is lost
       (with whatever storage faults are armed) and the log rebuilds itself
       from the durable image *)
    let install (t : t) world ~disk_faults =
      Array.iteri
        (fun i wal ->
          match
            List.filter_map (fun (s, inj) -> if s = i + 1 then Some inj else None) disk_faults
          with
          | [] -> ()
          | injs -> set_faults wal injs)
        t;
      World.add_crash_hook world (fun site ->
          match crash t.(site - 1) with
          | None -> ()
          | Some rep ->
              Metrics.bump (World.metrics world) l_wal_repairs;
              World.record world "site %d wal repair: %d survived, %d lost, %d bytes dropped%s" site
                rep.survived rep.lost_records rep.dropped_bytes
                (match rep.reason with Some r -> " (" ^ r ^ ")" | None -> ""))

    let log (t : t) ~site = t.(site - 1)
    let sites (t : t) = List.init (Array.length t) (fun i -> i + 1)
    let iter f (t : t) = Array.iteri (fun i w -> f (i + 1) w) t

    let fold f init (t : t) =
      let acc = ref init in
      Array.iteri (fun i w -> acc := f !acc (i + 1) w) t;
      !acc
  end
end
