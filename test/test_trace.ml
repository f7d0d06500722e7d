(* Unit tests for Hwts_trace: ring wrap under multi-domain stress, span
   nesting discipline, counter-based sampling determinism, mid-op switch
   flips, and the JSON exporters' round-trip. *)

module T = Hwts_trace
module J = Hwts_obs.Json

let with_obs b f =
  let prev = Hwts_obs.Config.enabled () in
  Hwts_obs.Config.set_enabled b;
  Fun.protect ~finally:(fun () -> Hwts_obs.Config.set_enabled prev) f

(* Enable tracing with a known sample period, with clean rings and
   domain-local state, restoring everything afterwards so later suites
   see tracing off. *)
let with_trace ?(period = 1) f =
  let prev = T.Config.enabled () in
  let prev_p = T.Config.sample_period () in
  T.Config.set_enabled true;
  T.Config.set_sample_period period;
  T.reset ();
  T.reset_local ();
  Fun.protect
    ~finally:(fun () ->
      T.Config.set_enabled prev;
      T.Config.set_sample_period prev_p;
      T.reset ();
      T.reset_local ())
    f

let exit_mismatch = Hwts_obs.Registry.counter "trace.exit_mismatch"
let ops_inflight = Hwts_obs.Registry.counter "trace.ops_inflight"

let by_slot evs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : T.event) ->
      Hashtbl.replace tbl e.T.slot (e :: Option.value ~default:[] (Hashtbl.find_opt tbl e.T.slot)))
    evs;
  Hashtbl.fold (fun slot es acc -> (slot, List.rev es) :: acc) tbl []

(* ---------- ring wrap under stress ---------- *)

let ring_wrap_stress () =
  with_obs true (fun () ->
      with_trace (fun () ->
          let cap = T.Config.capacity in
          (* Each op emits two events, so [cap] ops wrap each ring exactly
             once; 8 domains on however few cores the box has. *)
          ignore
            (Util.spawn_workers 8 (fun i ->
                 let cls = (i mod 4) + 1 in
                 for _ = 1 to cap do
                   T.Op.begin_ cls;
                   T.Op.end_ ()
                 done));
          let slots = by_slot (T.events ()) in
          Alcotest.(check bool) "some slots recorded" true (slots <> []);
          List.iter
            (fun (slot, es) ->
              (* each worker emitted 2*cap events, so every used ring
                 wrapped; the live window is exactly the last [cap] *)
              Alcotest.(check int)
                (Printf.sprintf "slot %d wrapped to capacity" slot)
                cap (List.length es);
              let last = ref 0 in
              List.iter
                (fun (e : T.event) ->
                  Alcotest.(check bool) "kind is begin/end" true
                    (e.T.kind = 0 || e.T.kind = 1);
                  Alcotest.(check bool) "phase is op" true (e.T.phase = T.Op);
                  Alcotest.(check bool) "class in range" true
                    (e.T.cls >= 1 && e.T.cls <= 4);
                  Alcotest.(check int) "aux zero" 0 e.T.aux;
                  Alcotest.(check bool) "stamps monotone (no tearing)" true
                    (e.T.stamp >= !last);
                  last := e.T.stamp)
                es)
            slots;
          (* reassembly survives the wrap: records well-formed, no phase
             cycles attributed since no inner spans ran *)
          let recs = T.op_records () in
          Alcotest.(check bool) "records recovered" true (recs <> []);
          List.iter
            (fun (r : T.op_record) ->
              Alcotest.(check bool) "total >= 0" true (r.T.op_total >= 0))
            recs;
          Alcotest.(check int) "brackets balanced" 0
            (Hwts_obs.Counter.sum ops_inflight)))

(* ---------- span nesting & exit-order discipline ---------- *)

let span_nesting () =
  with_obs true (fun () ->
      with_trace (fun () ->
          Hwts_obs.Counter.reset exit_mismatch;
          T.Op.begin_ 1;
          T.Span.enter T.Traverse;
          T.Span.enter T.Wait;
          T.Span.exit T.Wait;
          T.Span.exit T.Traverse;
          T.Op.end_ ();
          Alcotest.(check int) "clean nesting: no mismatch" 0
            (Hwts_obs.Counter.sum exit_mismatch);
          (match T.op_records () with
          | [ r ] ->
            Alcotest.(check int) "class" 1 r.T.op_cls;
            Alcotest.(check bool) "traverse cycles attributed" true
              (r.T.op_phases.(T.phase_index T.Traverse) >= 0
              && r.T.op_phases.(T.phase_index T.Traverse) <= r.T.op_total)
          | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
          (* out-of-order exit is counted, not raised, and does not
             corrupt the rest of the stack *)
          T.Op.begin_ 2;
          T.Span.enter T.Traverse;
          T.Span.exit T.Ebr;
          T.Span.exit T.Traverse;
          T.Op.end_ ();
          Alcotest.(check int) "out-of-order exit counted" 1
            (Hwts_obs.Counter.sum exit_mismatch);
          (* a span leaked past Op.end_ is force-closed and counted *)
          T.Op.begin_ 3;
          T.Span.enter T.Wait;
          T.Op.end_ ();
          Alcotest.(check int) "leaked span force-closed" 2
            (Hwts_obs.Counter.sum exit_mismatch);
          (* next op starts clean *)
          T.Op.begin_ 4;
          T.Span.enter T.Traverse;
          T.Span.exit T.Traverse;
          T.Op.end_ ();
          Alcotest.(check int) "stack recovered" 2
            (Hwts_obs.Counter.sum exit_mismatch);
          Alcotest.(check int) "brackets balanced" 0
            (Hwts_obs.Counter.sum ops_inflight)))

(* The drift-proof snapshot: an op that began traced closes traced even
   if the switch flips off mid-op, so the inflight gauge returns to zero
   and the op bracket still pairs. *)
let midop_flip () =
  with_obs true (fun () ->
      with_trace (fun () ->
          T.Op.begin_ 1;
          Alcotest.(check int) "inflight while bracketed" 1
            (Hwts_obs.Counter.sum ops_inflight);
          T.Config.set_enabled false;
          T.Span.enter T.Traverse;
          T.Span.exit T.Traverse;
          T.Op.end_ ();
          Alcotest.(check int) "inflight back to zero" 0
            (Hwts_obs.Counter.sum ops_inflight);
          let begins, ends =
            List.fold_left
              (fun (b, e) (ev : T.event) ->
                if ev.T.phase = T.Op then
                  if ev.T.kind = 0 then (b + 1, e) else (b, e + 1)
                else (b, e))
              (0, 0) (T.events ())
          in
          Alcotest.(check int) "op begin recorded" 1 begins;
          Alcotest.(check int) "op end still recorded" 1 ends;
          (* and an op that began untraced stays untraced when it flips on *)
          T.Config.set_enabled false;
          T.reset ();
          T.reset_local ();
          T.Op.begin_ 1;
          T.Config.set_enabled true;
          T.Span.enter T.Traverse;
          T.Span.exit T.Traverse;
          T.Op.end_ ();
          Alcotest.(check int) "no events from an untraced op" 0
            (List.length (T.events ()));
          Alcotest.(check int) "gauge untouched" 0
            (Hwts_obs.Counter.sum ops_inflight)))

(* ---------- sampling determinism ---------- *)

let run_ops n =
  for _ = 1 to n do
    T.Op.begin_ 1;
    T.Op.end_ ()
  done

let sampling_deterministic () =
  with_obs true (fun () ->
      with_trace ~period:4 (fun () ->
          run_ops 40;
          Alcotest.(check int) "every 4th op sampled" 10
            (List.length (T.op_records ()));
          (* the decision is a per-domain counter, not a clock or RNG:
             re-running the same op count reproduces the same sample *)
          T.reset ();
          T.reset_local ();
          run_ops 40;
          Alcotest.(check int) "repeatable" 10 (List.length (T.op_records ()));
          T.reset ();
          T.reset_local ();
          run_ops 41;
          Alcotest.(check int) "41st op starts a new period" 10
            (List.length (T.op_records ()))))

(* ---------- exporter round-trips ---------- *)

let exporter_roundtrip () =
  with_obs true (fun () ->
      with_trace (fun () ->
          for i = 1 to 50 do
            T.Op.begin_ ((i mod 4) + 1);
            T.Span.enter T.Traverse;
            T.Span.exit T.Traverse;
            T.Op.end_ ()
          done;
          (match J.parse_lines (T.to_json_lines ~structure:"t" ~provider:"p" ()) with
          | Error e -> Alcotest.failf "to_json_lines unparseable: %s" e
          | Ok lines ->
            let name l = Option.bind (J.member "name" l) J.to_str in
            (match List.find_opt (fun l -> name l = Some "trace.summary") lines with
            | None -> Alcotest.fail "no trace.summary line"
            | Some s ->
              Alcotest.(check (option int)) "sampled_ops" (Some 50)
                (Option.bind (J.member "sampled_ops" s) J.to_int);
              Alcotest.(check (option int)) "exit_mismatch exported" (Some 0)
                (Option.bind (J.member "exit_mismatch" s) J.to_int));
            let attrs =
              List.filter (fun l -> name l = Some "trace.tailattr") lines
            in
            Alcotest.(check bool) "tailattr lines present" true (attrs <> []);
            List.iter
              (fun l ->
                Alcotest.(check (option string)) "structure tag" (Some "t")
                  (Option.bind (J.member "structure" l) J.to_str);
                let band = Option.bind (J.member "band" l) J.to_str in
                Alcotest.(check bool) "band label" true
                  (List.mem band [ Some "p50"; Some "p99"; Some "p999" ]);
                Alcotest.(check bool) "dominant named" true
                  (Option.bind (J.member "dominant" l) J.to_str <> None);
                Alcotest.(check bool) "phase means present" true
                  (J.member "phases" l <> None))
              attrs);
          match J.parse (T.to_chrome_json ()) with
          | Error e -> Alcotest.failf "chrome json unparseable: %s" e
          | Ok doc -> (
            match J.member "traceEvents" doc with
            | Some (J.List evs) ->
              Alcotest.(check bool) "chrome events present" true (evs <> []);
              List.iter
                (fun ev ->
                  List.iter
                    (fun k ->
                      Alcotest.(check bool) ("chrome event has " ^ k) true
                        (J.member k ev <> None))
                    [ "name"; "ph"; "ts"; "pid"; "tid" ])
                evs
            | _ -> Alcotest.fail "traceEvents missing")))

(* stall watchdog: a span whose duration exceeds the budget is flagged;
   budgets are explicit cycles so the test fakes nothing *)
let stall_watchdog () =
  with_obs true (fun () ->
      with_trace (fun () ->
          T.Op.begin_ 1;
          T.Span.enter T.Wait;
          (* burn real cycles so the span's TSC width is nonzero *)
          let x = ref 0 in
          for i = 1 to 100_000 do
            x := !x + i
          done;
          Sys.opaque_identity !x |> ignore;
          T.Span.exit T.Wait;
          T.Op.end_ ();
          Alcotest.(check bool) "tight budget flags the wait" true
            (List.exists
               (fun (s : T.stall) -> s.T.stall_phase = T.Wait && not s.T.stall_open)
               (T.stalls ~budget:1 ()));
          Alcotest.(check int) "huge budget flags nothing" 0
            (List.length (T.stalls ~budget:max_int ()))))

(* ---------- phase numbering ---------- *)

(* Events store a phase as its index in 4 bits; every phase must
   round-trip through that index and keep a distinct export name. *)
let phase_index_roundtrip () =
  let all = [ T.Op; T.Acquire; T.Traverse; T.Ebr; T.Reclaim; T.Wait; T.Snapshot ] in
  Alcotest.(check int) "phase_count covers every phase" (List.length all)
    T.phase_count;
  Alcotest.(check (list int)) "indices are 0 .. phase_count - 1"
    (List.init T.phase_count Fun.id)
    (List.sort compare (List.map T.phase_index all));
  List.iter
    (fun p ->
      Alcotest.(check string)
        ("index round-trips " ^ T.phase_name p)
        (T.phase_name p)
        (T.phase_name (T.phase_of_index (T.phase_index p))))
    all;
  let names = List.map T.phase_name all in
  Alcotest.(check int) "export names distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check string) "unused index decodes as op" "op"
    (T.phase_name (T.phase_of_index T.phase_count))

(* A point event keeps its phase and aux payload through the ring and
   exports as a Chrome "i" instant named after the phase. *)
let chrome_names_snapshot_instants () =
  with_obs true (fun () ->
      with_trace (fun () ->
          T.Op.begin_ 4;
          T.instant ~aux:3 T.Snapshot;
          T.Op.end_ ();
          match J.parse (T.to_chrome_json ()) with
          | Error e -> Alcotest.failf "chrome json unparseable: %s" e
          | Ok doc -> (
            match J.member "traceEvents" doc with
            | Some (J.List evs) ->
              let str k ev = Option.bind (J.member k ev) J.to_str in
              let instants =
                List.filter (fun ev -> str "ph" ev = Some "i") evs
              in
              Alcotest.(check (list (option string))) "one snapshot instant"
                [ Some "snapshot" ]
                (List.map (str "name") instants);
              Alcotest.(check (option int)) "aux payload kept" (Some 3)
                (Option.bind (J.member "args" (List.hd instants)) (fun a ->
                     Option.bind (J.member "aux" a) J.to_int));
              Alcotest.(check bool) "op span named by class" true
                (List.exists (fun ev -> str "name" ev = Some "op:range") evs)
            | _ -> Alcotest.fail "traceEvents missing")))

let () =
  Alcotest.run "trace"
    [
      ( "rings",
        [ Alcotest.test_case "wrap under 8-domain stress" `Quick ring_wrap_stress ]
      );
      ( "spans",
        [
          Alcotest.test_case "nesting & exit-order" `Quick span_nesting;
          Alcotest.test_case "mid-op switch flip" `Quick midop_flip;
          Alcotest.test_case "stall watchdog" `Quick stall_watchdog;
        ] );
      ( "sampling",
        [ Alcotest.test_case "deterministic period" `Quick sampling_deterministic ]
      );
      ( "export",
        [ Alcotest.test_case "json round-trip" `Quick exporter_roundtrip ] );
      ( "phases",
        [ Alcotest.test_case "index round-trip" `Quick phase_index_roundtrip ] );
      ( "chrome",
        [
          Alcotest.test_case "snapshot instants name their phase" `Quick
            chrome_names_snapshot_instants;
        ] );
    ]
