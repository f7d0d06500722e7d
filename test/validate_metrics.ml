(* Validate an artifact (used by the Makefile bench targets): every line
   must parse, and the lines must satisfy the spec of the family they
   belong to (Benchkit.Family) — a bench sweep's schema and gate, a
   tail-attribution grid, a trend report, or a metrics export's
   canonical counters and histograms.  Chrome trace files and torture
   trace artifacts are recognized separately. *)

module J = Hwts_obs.Json

(* A Chrome trace_event artifact (hwts-cli run --trace-out) is a single
   JSON object, not lines: validate the envelope and that every event
   carries the fields Perfetto needs to place it. *)
let validate_chrome path doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match J.member "traceEvents" doc with
  | Some (J.List evs) ->
    if evs = [] then err "traceEvents is empty";
    List.iter
      (fun ev ->
        if Option.bind (J.member "name" ev) J.to_str = None then
          err "event without name";
        (match Option.bind (J.member "ph" ev) J.to_str with
        | Some ("X" | "B" | "i") -> ()
        | Some ph -> err "unknown event ph %S" ph
        | None -> err "event without ph");
        if Option.bind (J.member "ts" ev) J.to_float = None then
          err "event without numeric ts";
        List.iter
          (fun f ->
            if Option.bind (J.member f ev) J.to_int = None then
              err "event without integer %s" f)
          [ "pid"; "tid" ])
      evs;
    if !errors = [] then begin
      Printf.printf "ok: chrome trace with %d events in %s\n"
        (List.length evs) path;
      exit 0
    end
  | _ -> err "no traceEvents list");
  List.iter (Printf.eprintf "validate_metrics: chrome: %s\n")
    (List.sort_uniq compare !errors);
  exit 1

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: validate_metrics FILE";
    exit 2
  end;
  let path = Sys.argv.(1) in
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* An empty artifact is always a failure, never vacuously valid — the
     bench-scaling-smoke gate relies on this to reject a truncated
     BENCH_scaling.json. *)
  if String.trim content = "" then begin
    Printf.eprintf "%s: empty artifact\n" path;
    exit 1
  end;
  (* Torture trace artifacts (lib/check recorder histories) live next to
     metrics files but are human-readable event logs, not registry JSON;
     recognize and skip them rather than failing the parse. *)
  if String.starts_with ~prefix:Hwts_check.Torture.trace_header content then begin
    Printf.printf "ok: %s is a check trace artifact, not a metrics file\n" path;
    exit 0
  end;
  match J.parse_lines content with
  | Error e ->
    Printf.eprintf "%s: invalid JSON lines: %s\n" path e;
    exit 1
  | Ok [ doc ] when J.member "traceEvents" doc <> None -> validate_chrome path doc
  | Ok lines -> (
    let family = Benchkit.Family.detect lines in
    match Benchkit.Family.validate family lines with
    | Ok summary -> Printf.printf "ok: %s in %s\n" summary path
    | Error errors ->
      List.iter
        (Printf.eprintf "validate_metrics: %s: %s\n" family.Benchkit.Family.name)
        errors;
      exit 1)
