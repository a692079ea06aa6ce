(* Tests for the manager: allocation, locks (with RegC grant actions),
   barriers and condition variables. *)

let cfg = Samhita.Config.default
let layout = Samhita.Layout.of_config cfg
let t0 = Desim.Time.zero

let mk () =
  let e = Desim.Engine.create () in
  let net =
    Fabric.Network.create e ~profile:cfg.Samhita.Config.fabric ~node_count:4
  in
  let m =
    Samhita.Manager_shard.create cfg layout ~engine:e
      ~endpoint:(Fabric.Scl.endpoint net 0)
  in
  (e, net, m)

let mk_with cfg' =
  let e = Desim.Engine.create () in
  let net =
    Fabric.Network.create e ~profile:cfg'.Samhita.Config.fabric ~node_count:4
  in
  let m =
    Samhita.Manager_shard.create cfg' layout ~engine:e
      ~endpoint:(Fabric.Scl.endpoint net 0)
  in
  (e, net, m)

let ep net n = Fabric.Scl.endpoint net n

(* ---------------- allocation ---------------- *)

let test_alloc_alignment () =
  let _, _, m = mk () in
  let lb = Samhita.Config.line_bytes cfg in
  let a1 = Samhita.Manager_shard.alloc m ~kind:`Shared ~bytes:24 in
  Alcotest.(check int) "shared 8-aligned" 0 (a1 mod 8);
  let a2 = Samhita.Manager_shard.alloc m ~kind:`Arena_chunk ~bytes:100 in
  Alcotest.(check int) "chunk line-aligned" 0 (a2 mod lb);
  let a3 = Samhita.Manager_shard.alloc m ~kind:`Large ~bytes:1000 in
  Alcotest.(check int) "large stripe-aligned" 0
    (a3 mod Samhita.Home.stripe_bytes cfg);
  Alcotest.(check bool) "disjoint and ordered" true (a1 < a2 && a2 < a3);
  Alcotest.(check bool) "gas grows" true
    (Samhita.Manager_shard.gas_used m >= a3 + 1000)

let test_alloc_invalid () =
  let _, _, m = mk () in
  Alcotest.check_raises "zero"
    (Invalid_argument "Manager_shard.alloc: bytes must be positive") (fun () ->
      ignore (Samhita.Manager_shard.alloc m ~kind:`Shared ~bytes:0))

(* ---------------- locks ---------------- *)

let test_lock_grant_free () =
  let _, net, m = mk () in
  let l = Samhita.Manager_shard.lock_create m in
  Alcotest.(check (option int)) "free" None (Samhita.Manager_shard.lock_holder m l);
  match
    Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
      ~endpoint:(ep net 2) ~wake:(fun _ -> Alcotest.fail "no wake expected")
  with
  | `Granted g ->
    Alcotest.(check bool) "fresh" true (g.Samhita.Manager_shard.action = Fresh);
    Alcotest.(check int) "version 0" 0 g.Samhita.Manager_shard.lock_version;
    Alcotest.(check (option int)) "held" (Some 1)
      (Samhita.Manager_shard.lock_holder m l)
  | `Queued -> Alcotest.fail "expected immediate grant"

let test_lock_queue_and_handoff () =
  let e, net, m = mk () in
  let l = Samhita.Manager_shard.lock_create m in
  ignore
    (Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ()));
  let woken = ref None in
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
       ~endpoint:(ep net 3)
       ~wake:(fun g -> woken := Some g)
   with
   | `Queued -> ()
   | `Granted _ -> Alcotest.fail "expected queue");
  (* Holder releases with a log; waiter gets the lock and a Patch. *)
  let u = Samhita.Update.of_i64 ~addr:0 5L in
  Samhita.Manager_shard.lock_release m ~seq:1 ~now:t0 ~lock:l ~thread:1 ~log:[ u ]
    ~line_versions:[ (0, 1) ];
  Alcotest.(check (option int)) "handed off" (Some 2)
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check bool) "wake is a scheduled fabric event" true
    (!woken = None);
  Desim.Engine.run e;
  (match !woken with
   | Some g -> (
       Alcotest.(check int) "sees version 1" 1 g.Samhita.Manager_shard.lock_version;
       match g.Samhita.Manager_shard.action with
       | Samhita.Manager_shard.Patch ([ u' ], [ (0, 1) ]) ->
         Alcotest.(check int) "patch addr" 0 u'.Samhita.Update.addr
       | _ -> Alcotest.fail "expected Patch")
   | None -> Alcotest.fail "waiter never woken")

let test_lock_release_not_holder () =
  let _, net, m = mk () in
  let l = Samhita.Manager_shard.lock_create m in
  ignore
    (Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ()));
  Alcotest.check_raises "wrong thread"
    (Invalid_argument "Manager_shard.lock_release: thread does not hold the lock")
    (fun () ->
       Samhita.Manager_shard.lock_release m ~seq:1 ~now:t0 ~lock:l ~thread:9 ~log:[]
         ~line_versions:[])

let test_lock_release_error_mutates_nothing () =
  (* An erroneous release (wrong thread) must leave the lock state
     untouched: same holder, same version, and the waiter queue intact —
     the queued waiter is still handed the lock by the legitimate
     release afterwards. *)
  let e, net, m = mk () in
  let l = Samhita.Manager_shard.lock_create m in
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Granted _ -> ()
   | `Queued -> Alcotest.fail "free lock");
  Samhita.Manager_shard.lock_release m ~seq:1 ~now:t0 ~lock:l ~thread:1
    ~log:[ Samhita.Update.of_i64 ~addr:0 1L ]
    ~line_versions:[ (0, 1) ];
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:1
       ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Granted _ -> ()
   | `Queued -> Alcotest.fail "free lock");
  let woken = ref None in
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
       ~endpoint:(ep net 3) ~wake:(fun g -> woken := Some g)
   with
   | `Queued -> ()
   | `Granted _ -> Alcotest.fail "expected queue");
  let version_before = Samhita.Manager_shard.lock_version m l in
  Alcotest.check_raises "wrong thread rejected"
    (Invalid_argument "Manager_shard.lock_release: thread does not hold the lock")
    (fun () ->
       Samhita.Manager_shard.lock_release m ~seq:1 ~now:t0 ~lock:l ~thread:2
         ~log:[ Samhita.Update.of_i64 ~addr:8 9L ]
         ~line_versions:[ (0, 9) ]);
  Alcotest.(check (option int)) "holder unchanged" (Some 1)
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check int) "version unchanged" version_before
    (Samhita.Manager_shard.lock_version m l);
  Alcotest.(check bool) "waiter not woken by the error" true (!woken = None);
  (* The legitimate release still finds the waiter queued. *)
  Samhita.Manager_shard.lock_release m ~seq:2 ~now:t0 ~lock:l ~thread:1
    ~log:[ Samhita.Update.of_i64 ~addr:8 2L ]
    ~line_versions:[ (0, 2) ];
  Alcotest.(check (option int)) "handed off to the intact waiter" (Some 2)
    (Samhita.Manager_shard.lock_holder m l);
  Desim.Engine.run e;
  (match !woken with
   | Some g ->
     Alcotest.(check int) "waiter sees the post-release version" 2
       g.Samhita.Manager_shard.lock_version
   | None -> Alcotest.fail "waiter never woken")

let test_lock_release_free_lock () =
  (* Releasing a never-acquired lock is the same misuse: raises, and the
     lock stays free at version 0. *)
  let _, _, m = mk () in
  let l = Samhita.Manager_shard.lock_create m in
  Alcotest.check_raises "free lock rejected"
    (Invalid_argument "Manager_shard.lock_release: thread does not hold the lock")
    (fun () ->
       Samhita.Manager_shard.lock_release m ~seq:1 ~now:t0 ~lock:l ~thread:1
         ~log:[ Samhita.Update.of_i64 ~addr:0 1L ]
         ~line_versions:[ (0, 1) ]);
  Alcotest.(check (option int)) "still free" None
    (Samhita.Manager_shard.lock_holder m l);
  Alcotest.(check int) "version still 0" 0 (Samhita.Manager_shard.lock_version m l)

let test_lock_patch_aggregates_history () =
  let _, net, m = mk () in
  let l = Samhita.Manager_shard.lock_create m in
  (* Three acquire/release rounds by thread 1. *)
  for i = 1 to 3 do
    (match
       Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1
         ~last_seen:(i - 1) ~endpoint:(ep net 2) ~wake:(fun _ -> ())
     with
     | `Granted _ -> ()
     | `Queued -> Alcotest.fail "free lock");
    Samhita.Manager_shard.lock_release m ~seq:i ~now:t0 ~lock:l ~thread:1
      ~log:[ Samhita.Update.of_i64 ~addr:(i * 8) (Int64.of_int i) ]
      ~line_versions:[ (0, i) ]
  done;
  (* A thread that last saw version 1 gets updates 2 and 3, aggregated. *)
  match
    Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:1
      ~endpoint:(ep net 3) ~wake:(fun _ -> ())
  with
  | `Granted { action = Samhita.Manager_shard.Patch (log, lvs); lock_version; _ } ->
    Alcotest.(check int) "current version" 3 lock_version;
    Alcotest.(check (list int)) "updates 2 then 3 (oldest first)"
      [ 16; 24 ]
      (List.map (fun u -> u.Samhita.Update.addr) log);
    Alcotest.(check (list (pair int int))) "final line version" [ (0, 3) ]
      lvs
  | `Granted _ -> Alcotest.fail "expected Patch"
  | `Queued -> Alcotest.fail "lock should be free"

let test_lock_notices_fallback () =
  (* History depth 1: a two-version gap cannot be patched. *)
  let cfg' = { cfg with update_log_history = 1 } in
  let _, net, m = mk_with cfg' in
  let l = Samhita.Manager_shard.lock_create m in
  for i = 1 to 3 do
    (match
       Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1
         ~last_seen:(i - 1) ~endpoint:(ep net 2) ~wake:(fun _ -> ())
     with
     | `Granted _ -> ()
     | `Queued -> Alcotest.fail "free lock");
    Samhita.Manager_shard.lock_release m ~seq:i ~now:t0 ~lock:l ~thread:1
      ~log:[ Samhita.Update.of_i64 ~addr:(i * 8) 1L ]
      ~line_versions:[ (i, i) ]
  done;
  match
    Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
      ~endpoint:(ep net 3) ~wake:(fun _ -> ())
  with
  | `Granted { action = Samhita.Manager_shard.Notices ns; _ } ->
    Alcotest.(check (list (pair int int))) "touched map"
      [ (1, 1); (2, 2); (3, 3) ]
      (List.sort compare ns)
  | `Granted _ -> Alcotest.fail "expected Notices"
  | `Queued -> Alcotest.fail "lock should be free"

let test_lock_grant_wire_grows_with_payload () =
  let _, net, m = mk () in
  let l = Samhita.Manager_shard.lock_create m in
  (match
     Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen:0
       ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Granted g0 ->
     Samhita.Manager_shard.lock_release m ~seq:1 ~now:t0 ~lock:l ~thread:1
       ~log:(List.init 10 (fun i -> Samhita.Update.of_i64 ~addr:(i * 8) 0L))
       ~line_versions:[ (0, 1) ];
     (match
        Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:2 ~last_seen:0
          ~endpoint:(ep net 3) ~wake:(fun _ -> ())
      with
      | `Granted g1 ->
        Alcotest.(check bool) "patch reply bigger than fresh reply" true
          (g1.Samhita.Manager_shard.wire_bytes > g0.Samhita.Manager_shard.wire_bytes)
      | `Queued -> Alcotest.fail "free")
   | `Queued -> Alcotest.fail "free")

(* ---------------- history ring vs the list model ---------------- *)

(* A reference copy of the list-based history the ring replaced: every
   release prepends an entry and the list is cut to the newest
   [update_log_history]; a grant is covered iff the entries newer than
   [last_seen] number exactly the gap, and then patches with their logs
   oldest first and each line at its newest version. *)
module List_history = struct
  type entry = { v : int; log : Samhita.Update.t list; lvs : (int * int) list }

  type t = {
    keep : int;
    mutable version : int;
    mutable history : entry list;  (* newest first *)
    touched : (int, int) Hashtbl.t;
  }

  let create ~keep =
    { keep; version = 0; history = []; touched = Hashtbl.create 16 }

  let release h ~log ~lvs =
    h.version <- h.version + 1;
    h.history <- { v = h.version; log; lvs } :: h.history;
    if List.length h.history > h.keep then
      h.history <- List.filteri (fun i _ -> i < h.keep) h.history;
    List.iter (fun (l, v) -> Hashtbl.replace h.touched l v) lvs

  let grant_framing = 48

  (* [(kind, log, sorted line versions, wire bytes)] *)
  let grant h ~last_seen =
    if last_seen >= h.version then (`Fresh, [], [], grant_framing)
    else begin
      let covering = List.filter (fun e -> e.v > last_seen) h.history in
      if List.length covering = h.version - last_seen && h.keep > 0 then begin
        let ordered = List.rev covering in
        let log = List.concat_map (fun e -> e.log) ordered in
        let lv = Hashtbl.create 16 in
        List.iter
          (fun e -> List.iter (fun (l, v) -> Hashtbl.replace lv l v) e.lvs)
          ordered;
        let lvs = List.sort compare (Hashtbl.fold (fun l v a -> (l, v) :: a) lv []) in
        ( `Patch, log, lvs,
          grant_framing + Samhita.Update.log_wire_bytes log
          + Samhita.Manager_shard.notice_wire lvs )
      end
      else begin
        let ns =
          List.sort compare (Hashtbl.fold (fun l v a -> (l, v) :: a) h.touched [])
        in
        (`Notices, [], ns, grant_framing + Samhita.Manager_shard.notice_wire ns)
      end
    end
end

(* One step of a random history: a release's log and line versions (one
   entry per line, as a flush produces), then the [last_seen] of the next
   acquire, as a fraction of the versions so far. *)
let gen_step =
  QCheck.Gen.(
    let update = map2 (fun slot v -> (8 * slot, v)) (int_bound 63) (int_bound 999) in
    triple (list_size (int_bound 3) update)
      (list_size (int_bound 3) (pair (int_bound 5) (int_bound 999)))
      (float_bound_inclusive 1.))

let print_step (log, lvs, f) =
  Printf.sprintf "log=[%s] lvs=[%s] last_seen=%.2f"
    (String.concat ";" (List.map (fun (a, v) -> Printf.sprintf "%d:%d" a v) log))
    (String.concat ";" (List.map (fun (l, v) -> Printf.sprintf "%d:%d" l v) lvs))
    f

let ring_matches_list_model keep steps =
  let _, net, m = mk_with { cfg with update_log_history = keep } in
  let l = Samhita.Manager_shard.lock_create m in
  let model = List_history.create ~keep in
  let acquire ~last_seen =
    match
      Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1 ~last_seen
        ~endpoint:(ep net 2) ~wake:(fun _ -> ())
    with
    | `Granted g -> g
    | `Queued -> QCheck.Test.fail_report "uncontended acquire queued"
  in
  List.iteri
    (fun i (log, lvs, f) ->
       let last_seen = int_of_float (f *. float_of_int model.version) in
       let g = acquire ~last_seen in
       let kind, mlog, mlvs, mwire = List_history.grant model ~last_seen in
       let got_kind, got_log, got_lvs =
         match g.Samhita.Manager_shard.action with
         | Samhita.Manager_shard.Fresh -> (`Fresh, [], [])
         | Samhita.Manager_shard.Patch (log, lvs) -> (`Patch, log, List.sort compare lvs)
         | Samhita.Manager_shard.Notices ns -> (`Notices, [], List.sort compare ns)
       in
       if got_kind <> kind || got_log <> mlog || got_lvs <> mlvs
          || g.Samhita.Manager_shard.wire_bytes <> mwire
          || g.Samhita.Manager_shard.lock_version <> model.version
       then
         QCheck.Test.fail_reportf
           "step %d (keep %d, version %d, last_seen %d): grant differs from \
            the list model" i keep model.version last_seen;
       let log =
         List.map
           (fun (addr, v) -> Samhita.Update.of_i64 ~addr (Int64.of_int v))
           log
       in
       let lvs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) lvs in
       Samhita.Manager_shard.lock_release m ~seq:(i + 1) ~now:t0 ~lock:l
         ~thread:1 ~log ~line_versions:lvs;
       List_history.release model ~log ~lvs)
    steps;
  true

let test_ring_matches_list_model =
  (* Up to 150 releases, so a 64-deep ring wraps too. *)
  QCheck.Test.make ~name:"history ring grants == list-based history"
    ~count:200
    (QCheck.make
       ~print:(fun (keep, steps) ->
           Printf.sprintf "keep=%d\n%s" keep
             (String.concat "\n" (List.map print_step steps)))
       QCheck.Gen.(
         pair (oneofl [ 0; 1; 2; 64 ]) (list_size (int_range 1 150) gen_step)))
    (fun (keep, steps) -> ring_matches_list_model keep steps)

(* Crash replay reads only the retained releases, oldest first: with a
   two-deep ring and five releases, releases 4 and 5 are replayed onto a
   promoted replica that missed them all, and the overwritten 1-3 are
   not. Release [i] stores [i] at address 0 and at address [8 * i]. *)
let test_replay_after_ring_wrap () =
  let cfg' = { cfg with update_log_history = 2 } in
  let e, net, m = mk_with cfg' in
  let l = Samhita.Manager_shard.lock_create m in
  for i = 1 to 5 do
    (match
       Samhita.Manager_shard.lock_acquire m ~now:t0 ~lock:l ~thread:1
         ~last_seen:(i - 1) ~endpoint:(ep net 2) ~wake:(fun _ -> ())
     with
     | `Granted _ -> ()
     | `Queued -> Alcotest.fail "free lock");
    Samhita.Manager_shard.lock_release m ~seq:i ~now:t0 ~lock:l ~thread:1
      ~log:
        [ Samhita.Update.of_i64 ~addr:0 (Int64.of_int i);
          Samhita.Update.of_i64 ~addr:(8 * i) (Int64.of_int i) ]
      ~line_versions:[ (0, i) ]
  done;
  let dir = Samhita.Directory.create cfg' in
  let promoted =
    Samhita.Memory_server.create cfg' layout ~id:0 ~endpoint:(ep net 1)
  in
  let replayed =
    Samhita.Manager_shard.replay m ~dir ~servers:[| promoted |] ~dead:0
      ~promoted:0 ~subscribers:[] ~now:(Desim.Engine.now e)
  in
  let word a = Bytes.get_int64_le (Samhita.Memory_server.line promoted 0) a in
  Alcotest.(check int) "two retained releases replayed" 2 replayed;
  Alcotest.(check int) "replica at the newest version" 5
    (Samhita.Memory_server.version promoted 0);
  Alcotest.(check int64) "oldest first: release 5 wins address 0" 5L (word 0);
  Alcotest.(check (list int64)) "releases 4 and 5 applied, 1-3 gone"
    [ 0L; 0L; 0L; 4L; 5L ]
    (List.map (fun i -> word (8 * i)) [ 1; 2; 3; 4; 5 ])

(* ---------------- barriers ---------------- *)

let test_barrier_release_and_masks () =
  let e, net, m = mk () in
  let b = Samhita.Manager_shard.barrier_create m ~parties:3 in
  let woken = ref [] in
  let arrive thread lines =
    Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread ~lines
      ~endpoint:(ep net 2)
      ~wake:(fun (ns, _) -> woken := (thread, ns) :: !woken)
  in
  (match arrive 0 [ 10 ] with
   | `Wait -> ()
   | `Released _ -> Alcotest.fail "not last");
  (match arrive 1 [ 10; 11 ] with
   | `Wait -> ()
   | `Released _ -> Alcotest.fail "not last");
  (match arrive 2 [] with
   | `Released (all, _) ->
     Alcotest.(check (list (pair int (list int))))
       "writer sets aggregated"
       [ (10, [ 0; 1 ]); (11, [ 1 ]) ]
       (List.sort compare
          (List.map (fun (l, s) -> (l, Samhita.Tset.to_list s)) all))
   | `Wait -> Alcotest.fail "last arriver must release");
  Desim.Engine.run e;
  Alcotest.(check int) "both waiters woken" 2 (List.length !woken);
  Alcotest.(check int) "epoch advanced" 1 (Samhita.Manager_shard.barrier_epoch m b)

let test_barrier_reusable () =
  let e, net, m = mk () in
  let b = Samhita.Manager_shard.barrier_create m ~parties:2 in
  for epoch = 0 to 2 do
    ignore
      (Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:0
         ~lines:[ epoch ] ~endpoint:(ep net 2) ~wake:(fun _ -> ()));
    match
      Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:1
        ~lines:[] ~endpoint:(ep net 3) ~wake:(fun _ -> ())
    with
    | `Released (all, _) ->
      Alcotest.(check (list (pair int (list int))))
        "epoch notices are fresh each time"
        [ (epoch, [ 0 ]) ]
        (List.map (fun (l, s) -> (l, Samhita.Tset.to_list s)) all)
    | `Wait -> Alcotest.fail "should release"
  done;
  Desim.Engine.run e;
  Alcotest.(check int) "three epochs" 3 (Samhita.Manager_shard.barrier_epoch m b)

let test_barrier_thread_id_range () =
  let e, net, m = mk () in
  let b = Samhita.Manager_shard.barrier_create m ~parties:1 in
  (* Thread ids beyond the old 62-entry mask limit are legal now that
     writer sets are bitsets; only negative ids are rejected. *)
  (match
     Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:62
       ~lines:[ 7 ] ~endpoint:(ep net 2) ~wake:(fun _ -> ())
   with
   | `Released (all, _) ->
     Alcotest.(check (list (pair int (list int))))
       "wide thread id recorded in the writer set"
       [ (7, [ 62 ]) ]
       (List.map (fun (l, s) -> (l, Samhita.Tset.to_list s)) all)
   | `Wait -> Alcotest.fail "single party must release");
  Desim.Engine.run e;
  Alcotest.check_raises "negative id"
    (Invalid_argument "Manager_shard.barrier_arrive: negative thread id")
    (fun () ->
       ignore
         (Samhita.Manager_shard.barrier_arrive m ~now:t0 ~barrier:b ~thread:(-1)
            ~lines:[] ~endpoint:(ep net 2) ~wake:(fun _ -> ())))

let test_barrier_invalid_parties () =
  let _, _, m = mk () in
  Alcotest.check_raises "parties"
    (Invalid_argument "Manager_shard.barrier_create: parties") (fun () ->
      ignore (Samhita.Manager_shard.barrier_create m ~parties:0))

(* ---------------- condition variables ---------------- *)

let test_cond_signal_fifo () =
  let e, net, m = mk () in
  let c = Samhita.Manager_shard.cond_create m in
  let woken = ref [] in
  for i = 1 to 3 do
    Samhita.Manager_shard.cond_wait m ~cond:c ~thread:i ~endpoint:(ep net 2)
      ~wake:(fun () -> woken := i :: !woken)
  done;
  Alcotest.(check int) "signal wakes one" 1
    (Samhita.Manager_shard.cond_signal m ~now:t0 ~cond:c);
  Desim.Engine.run e;
  Alcotest.(check (list int)) "first waiter" [ 1 ] (List.rev !woken);
  Alcotest.(check int) "broadcast wakes rest" 2
    (Samhita.Manager_shard.cond_broadcast m ~now:t0 ~cond:c);
  Desim.Engine.run e;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !woken);
  Alcotest.(check int) "signal on empty" 0
    (Samhita.Manager_shard.cond_signal m ~now:t0 ~cond:c)

let test_unknown_ids () =
  let _, net, m = mk () in
  Alcotest.check_raises "unknown lock" (Invalid_argument "Manager_shard: unknown lock")
    (fun () -> ignore (Samhita.Manager_shard.lock_holder m 999));
  Alcotest.check_raises "unknown barrier"
    (Invalid_argument "Manager_shard: unknown barrier") (fun () ->
      ignore (Samhita.Manager_shard.barrier_epoch m 999));
  Alcotest.check_raises "unknown cond"
    (Invalid_argument "Manager_shard: unknown condition variable") (fun () ->
      Samhita.Manager_shard.cond_wait m ~cond:999 ~thread:0 ~endpoint:(ep net 2)
        ~wake:(fun () -> ()))

let tests =
  [ Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
    Alcotest.test_case "alloc invalid" `Quick test_alloc_invalid;
    Alcotest.test_case "lock grant when free" `Quick test_lock_grant_free;
    Alcotest.test_case "lock queue + handoff" `Quick
      test_lock_queue_and_handoff;
    Alcotest.test_case "release error mutates nothing" `Quick
      test_lock_release_error_mutates_nothing;
    Alcotest.test_case "release of a free lock" `Quick
      test_lock_release_free_lock;
    Alcotest.test_case "release by non-holder" `Quick
      test_lock_release_not_holder;
    Alcotest.test_case "patch aggregates history" `Quick
      test_lock_patch_aggregates_history;
    Alcotest.test_case "notices fallback" `Quick test_lock_notices_fallback;
    Alcotest.test_case "grant wire size" `Quick
      test_lock_grant_wire_grows_with_payload;
    QCheck_alcotest.to_alcotest test_ring_matches_list_model;
    Alcotest.test_case "replay after the ring wraps" `Quick
      test_replay_after_ring_wrap;
    Alcotest.test_case "barrier masks" `Quick test_barrier_release_and_masks;
    Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
    Alcotest.test_case "barrier thread id range" `Quick
      test_barrier_thread_id_range;
    Alcotest.test_case "barrier invalid parties" `Quick
      test_barrier_invalid_parties;
    Alcotest.test_case "cond signal/broadcast" `Quick test_cond_signal_fifo;
    Alcotest.test_case "unknown ids" `Quick test_unknown_ids ]

let () = Alcotest.run "samhita.manager" [ ("manager", tests) ]
