(* Tests for the per-thread software cache. *)

let cfg = { Samhita.Config.default with cache_lines = 4 }
let layout = Samhita.Layout.of_config cfg
let lb = layout.Samhita.Layout.line_bytes

let mk () = Samhita.Cache.create cfg layout
let buf () = Bytes.make lb '\000'

let insert_plain c line =
  Samhita.Cache.insert c ~line ~data:(buf ()) ~version:0 ~evict:(fun _ -> ())

let test_insert_find () =
  let c = mk () in
  let e = insert_plain c 5 in
  Alcotest.(check int) "line id" 5 e.Samhita.Cache.line;
  (* Physical equality: entries carry cyclic intrusive LRU links, so
     structural compare must never be applied to them. *)
  Alcotest.(check bool) "found" true
    (match Samhita.Cache.find c 5 with Some e' -> e' == e | None -> false);
  Alcotest.(check bool) "absent" true (Samhita.Cache.find c 6 = None);
  Alcotest.(check int) "size" 1 (Samhita.Cache.size c);
  Alcotest.(check int) "capacity" 4 (Samhita.Cache.capacity c)

let test_duplicate_insert_returns_existing () =
  let c = mk () in
  let e1 = insert_plain c 5 in
  let e2 = insert_plain c 5 in
  Alcotest.(check bool) "same entry" true (e1 == e2);
  Alcotest.(check int) "no duplicate" 1 (Samhita.Cache.size c)

let test_lru_eviction () =
  let c = mk () in
  List.iter (fun l -> ignore (insert_plain c l)) [ 1; 2; 3; 4 ];
  (* Touch 1 so 2 becomes LRU. *)
  ignore (Samhita.Cache.find c 1);
  let evicted = ref [] in
  ignore
    (Samhita.Cache.insert c ~line:9 ~data:(buf ()) ~version:0
       ~evict:(fun v -> evicted := v.Samhita.Cache.line :: !evicted));
  Alcotest.(check (list int)) "LRU victim" [ 2 ] !evicted;
  Alcotest.(check bool) "victim gone" true (Samhita.Cache.peek c 2 = None);
  Alcotest.(check int) "evictions" 1 (Samhita.Cache.evictions c)

let test_dirty_first_eviction () =
  let c = mk () in
  List.iter (fun l -> ignore (insert_plain c l)) [ 1; 2; 3; 4 ];
  (* Make line 3 dirty although recently used. *)
  (match Samhita.Cache.peek c 3 with
   | Some e -> Samhita.Cache.mark_written c e ~offset:0 ~len:8
   | None -> Alcotest.fail "line 3 missing");
  ignore (Samhita.Cache.find c 3);
  let evicted = ref [] in
  ignore
    (Samhita.Cache.insert c ~line:9 ~data:(buf ()) ~version:0
       ~evict:(fun v -> evicted := v.Samhita.Cache.line :: !evicted));
  Alcotest.(check (list int)) "dirty line preferred over LRU" [ 3 ] !evicted;
  Alcotest.(check int) "dirty eviction counted" 1
    (Samhita.Cache.dirty_evictions c)

let test_lru_only_eviction () =
  let cfg' = { cfg with evict_dirty_first = false } in
  let c = Samhita.Cache.create cfg' layout in
  List.iter
    (fun l ->
       ignore
         (Samhita.Cache.insert c ~line:l ~data:(buf ()) ~version:0
            ~evict:(fun _ -> ())))
    [ 1; 2; 3; 4 ];
  (match Samhita.Cache.peek c 1 with
   | Some e -> Samhita.Cache.mark_written c e ~offset:0 ~len:8
   | None -> Alcotest.fail "missing");
  (* With pure LRU, line 1 (just touched by peek-less mark) is victim only
     if oldest; we touched nothing since insert, so 1 is oldest anyway.
     Touch it to make 2 the victim despite 1 being dirty. *)
  ignore (Samhita.Cache.find c 1);
  let evicted = ref [] in
  ignore
    (Samhita.Cache.insert c ~line:9 ~data:(buf ()) ~version:0
       ~evict:(fun v -> evicted := v.Samhita.Cache.line :: !evicted));
  Alcotest.(check (list int)) "pure LRU ignores dirtiness" [ 2 ] !evicted

let test_mark_written_twin_and_bits () =
  let c = mk () in
  let e = insert_plain c 0 in
  Alcotest.(check bool) "clean" true (e.Samhita.Cache.twin = None);
  Bytes.set e.Samhita.Cache.data 5000 'x';
  (* Snapshot must happen before the store in real use; here we emulate the
     correct order: mark, then write. *)
  let e2 = insert_plain c 1 in
  Samhita.Cache.mark_written c e2 ~offset:4096 ~len:8;
  Alcotest.(check bool) "twin created" true (e2.Samhita.Cache.twin <> None);
  Alcotest.(check int) "page 1 dirty" 0b10 e2.Samhita.Cache.dirty_pages;
  Samhita.Cache.mark_written c e2 ~offset:(4096 - 4) ~len:8;
  Alcotest.(check int) "straddle marks pages 0 and 1" 0b11
    e2.Samhita.Cache.dirty_pages;
  Samhita.Cache.clean c e2 ~version:7;
  Alcotest.(check bool) "twin dropped" true (e2.Samhita.Cache.twin = None);
  Alcotest.(check int) "bits cleared" 0 e2.Samhita.Cache.dirty_pages;
  Alcotest.(check int) "version recorded" 7 e2.Samhita.Cache.version

let test_dirty_entries_sorted () =
  let c = mk () in
  let e3 = insert_plain c 3 in
  let e1 = insert_plain c 1 in
  let e2 = insert_plain c 2 in
  Samhita.Cache.mark_written c e3 ~offset:0 ~len:8;
  Samhita.Cache.mark_written c e1 ~offset:0 ~len:8;
  ignore e2;
  Alcotest.(check (list int)) "dirty ascending" [ 1; 3 ]
    (List.map
       (fun (e : Samhita.Cache.entry) -> e.Samhita.Cache.line)
       (Samhita.Cache.dirty_entries c))

let test_invalidate () =
  let c = mk () in
  ignore (insert_plain c 1);
  Samhita.Cache.invalidate c 1;
  Alcotest.(check bool) "gone" true (Samhita.Cache.peek c 1 = None);
  Alcotest.(check int) "counted" 1 (Samhita.Cache.invalidations c);
  (* Invalidating an absent line is harmless. *)
  Samhita.Cache.invalidate c 77;
  Alcotest.(check int) "not counted" 1 (Samhita.Cache.invalidations c)

let test_try_install_respects_dirty () =
  let c = mk () in
  List.iter (fun l -> ignore (insert_plain c l)) [ 1; 2; 3; 4 ];
  (* All clean: try_install evicts a clean victim. *)
  Alcotest.(check bool) "installs over clean" true
    (Samhita.Cache.try_install c ~line:8 ~data:(buf ()) ~version:0);
  (* Make everything dirty: try_install must refuse. *)
  Hashtbl.iter (fun _ _ -> ()) (Hashtbl.create 1);
  List.iter
    (fun l ->
       match Samhita.Cache.peek c l with
       | Some e -> Samhita.Cache.mark_written c e ~offset:0 ~len:8
       | None -> ())
    [ 2; 3; 4; 8 ];
  Alcotest.(check bool) "refuses when all dirty" false
    (Samhita.Cache.try_install c ~line:9 ~data:(buf ()) ~version:0);
  Alcotest.(check bool) "not cached" true (Samhita.Cache.peek c 9 = None);
  (* Duplicate install refused. *)
  Alcotest.(check bool) "duplicate refused" false
    (Samhita.Cache.try_install c ~line:8 ~data:(buf ()) ~version:0)

(* A prefetch install displaces a clean victim without telling the
   thread that may still hold it as its fast-path entry: the victim must
   stop matching its old line. *)
let test_try_install_poisons_victim () =
  let c = mk () in
  let victim = insert_plain c 1 in
  List.iter (fun l -> ignore (insert_plain c l)) [ 2; 3; 4 ];
  Alcotest.(check bool) "installs over clean" true
    (Samhita.Cache.try_install c ~line:8 ~data:(buf ()) ~version:0);
  Alcotest.(check bool) "victim evicted" true (Samhita.Cache.peek c 1 = None);
  Alcotest.(check bool) "stale reference matches no line" true
    (victim.Samhita.Cache.line <> 1)

let test_remove_recycles_buffers () =
  let c = mk () in
  Alcotest.(check int) "no spares at create" 0
    (List.length (Samhita.Cache.spares c));
  let data = Samhita.Cache.buffer c in
  let e =
    Samhita.Cache.insert c ~line:5 ~data ~version:0 ~evict:(fun _ -> ())
  in
  Bytes.set e.Samhita.Cache.data 0 'a';
  Samhita.Cache.mark_written c e ~offset:0 ~len:8;
  let twin = Option.get e.Samhita.Cache.twin in
  Alcotest.(check char) "twin copies the line" 'a' (Bytes.get twin 0);
  Samhita.Cache.invalidate c 5;
  Alcotest.(check int) "poisoned" (-1) e.Samhita.Cache.line;
  let spares = Samhita.Cache.spares c in
  Alcotest.(check bool) "data and twin recycled" true
    (List.length spares = 2
     && List.exists (fun b -> b == data) spares
     && List.exists (fun b -> b == twin) spares);
  let b = Samhita.Cache.buffer c in
  Alcotest.(check bool) "buffer reuses a spare" true (b == data || b == twin);
  (* A duplicate insert keeps the resident entry and recycles the new
     buffer. *)
  let e7 = insert_plain c 7 in
  let dup = Samhita.Cache.insert c ~line:7 ~data:b ~version:0
      ~evict:(fun _ -> ()) in
  Alcotest.(check bool) "existing entry" true (dup == e7);
  Alcotest.(check bool) "duplicate's buffer recycled" true
    (List.exists (fun x -> x == b) (Samhita.Cache.spares c))

let test_pending_lifecycle () =
  let c = mk () in
  Alcotest.(check bool) "start" true (Samhita.Cache.pending_start c 5);
  Alcotest.(check bool) "no duplicate prefetch" false
    (Samhita.Cache.pending_start c 5);
  Alcotest.(check bool) "is pending" true (Samhita.Cache.is_pending c 5);
  let got = ref None in
  (match Samhita.Cache.pending_wait c 5 with
   | Some register -> register (fun arrival -> got := Some arrival)
   | None -> Alcotest.fail "expected pending");
  Samhita.Cache.pending_complete c 5 ~data:(buf ()) ~version:3;
  (match !got with
   | Some (Some (_, v)) -> Alcotest.(check int) "version delivered" 3 v
   | _ -> Alcotest.fail "waiter not delivered");
  Alcotest.(check bool) "pending cleared" false (Samhita.Cache.is_pending c 5)

let test_pending_stale_delivery () =
  let c = mk () in
  ignore (Samhita.Cache.pending_start c 6);
  let got = ref None in
  (match Samhita.Cache.pending_wait c 6 with
   | Some register -> register (fun arrival -> got := Some arrival)
   | None -> Alcotest.fail "pending");
  (* Invalidation in flight marks the prefetch stale. *)
  Samhita.Cache.invalidate c 6;
  Samhita.Cache.pending_complete c 6 ~data:(buf ()) ~version:1;
  Alcotest.(check bool) "waiter told to retry" true (!got = Some None);
  Alcotest.(check bool) "stale data not installed" true
    (Samhita.Cache.peek c 6 = None)

let test_pending_no_waiters_installs () =
  let c = mk () in
  ignore (Samhita.Cache.pending_start c 7);
  Samhita.Cache.pending_complete c 7 ~data:(buf ()) ~version:2;
  (match Samhita.Cache.peek c 7 with
   | Some e -> Alcotest.(check int) "installed version" 2 e.Samhita.Cache.version
   | None -> Alcotest.fail "expected install");
  Alcotest.(check int) "prefetch install counted" 1
    (Samhita.Cache.prefetch_installs c)

let test_hit_miss_counters () =
  let c = mk () in
  Samhita.Cache.note_hit c;
  Samhita.Cache.note_hit c;
  Samhita.Cache.note_miss c;
  Alcotest.(check int) "hits" 2 (Samhita.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Samhita.Cache.misses c)

let prop_capacity_never_exceeded =
  QCheck.Test.make ~name:"size never exceeds capacity (plain inserts)"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 20))
    (fun lines ->
       let c = mk () in
       List.iter
         (fun l ->
            if Samhita.Cache.peek c l = None then
              ignore
                (Samhita.Cache.insert c ~line:l ~data:(buf ()) ~version:0
                   ~evict:(fun _ -> ())))
         lines;
       Samhita.Cache.size c <= Samhita.Cache.capacity c)

let tests =
  [ Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "duplicate insert" `Quick
      test_duplicate_insert_returns_existing;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "dirty-first eviction" `Quick
      test_dirty_first_eviction;
    Alcotest.test_case "pure LRU eviction" `Quick test_lru_only_eviction;
    Alcotest.test_case "twin + dirty bits" `Quick
      test_mark_written_twin_and_bits;
    Alcotest.test_case "dirty entries sorted" `Quick
      test_dirty_entries_sorted;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "try_install" `Quick test_try_install_respects_dirty;
    Alcotest.test_case "try_install poisons its victim" `Quick
      test_try_install_poisons_victim;
    Alcotest.test_case "remove recycles buffers" `Quick
      test_remove_recycles_buffers;
    Alcotest.test_case "pending lifecycle" `Quick test_pending_lifecycle;
    Alcotest.test_case "pending stale" `Quick test_pending_stale_delivery;
    Alcotest.test_case "pending auto-install" `Quick
      test_pending_no_waiters_installs;
    Alcotest.test_case "hit/miss counters" `Quick test_hit_miss_counters;
    QCheck_alcotest.to_alcotest prop_capacity_never_exceeded ]

let () = Alcotest.run "samhita.cache" [ ("cache", tests) ]
