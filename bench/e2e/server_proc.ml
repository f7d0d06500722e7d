(* The real hwts-serve binary, run as a child process on an ephemeral
   port. *)

type t = { pid : int; port : int; out : Unix.file_descr; metrics : string }

let default_exe = "_build/default/bin/hwts_serve.exe"

(* Read one line from [fd], waiting at most until [deadline]. *)
let read_line fd ~deadline =
  let b = Buffer.create 128 and c = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then failwith "hwts-serve did not report its port in time";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd c 0 1 with
      | 0 -> failwith "hwts-serve exited before listening"
      | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
      | _ ->
        Buffer.add_char b (Bytes.get c 0);
        go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start ~exe ~metrics (w : Spec.t) =
  if Sys.file_exists metrics then Sys.remove metrics;
  let args =
    [|
      exe;
      "--port"; "0";
      "--shards"; string_of_int Spec.shards;
      "--structure"; w.structure;
      "--provider"; Workload.Targets.ts_name w.provider;
      "--reclaim"; Workload.Targets.reclaim_name w.reclaim;
      "--key-space"; string_of_int w.key_space;
      "--metrics-out"; metrics;
    |]
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec port () =
    let line = read_line r ~deadline in
    match Scanf.sscanf line "hwts-serve: listening on %[^:]:%d" (fun _ p -> p) with
    | p -> p
    | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> port ()
  in
  match port () with
  | port -> { pid; port; out = r; metrics }
  | exception e ->
    (try Unix.kill pid Sys.sigkill with _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close r;
    raise e

(* Peak resident set of the server so far, in MB (VmHWM). *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
      | kb -> float_of_int kb /. 1024.
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> go ())
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  go ()

(* SIGTERM, then wait for a drained exit.  Returns why the shutdown was
   not clean, if it was not: a nonzero exit, a hang, or a --metrics-out
   file that is missing or does not parse. *)
let stop t =
  Unix.kill t.pid Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid);
        Some "hwts-serve did not exit within 60 s of SIGTERM"
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _, Unix.WEXITED 0 -> None
    | _, Unix.WEXITED n -> Some (Printf.sprintf "hwts-serve exited with %d" n)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Some (Printf.sprintf "hwts-serve killed by signal %d" s)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let exit_problem = wait () in
  Unix.close t.out;
  match exit_problem with
  | Some _ as p -> p
  | None -> (
    match In_channel.with_open_bin t.metrics In_channel.input_all with
    | exception Sys_error e -> Some ("no --metrics-out file: " ^ e)
    | text -> (
      match Hwts_obs.Json.parse_lines text with
      | Ok (_ :: _) -> None
      | Ok [] -> Some "empty --metrics-out file"
      | Error e -> Some ("--metrics-out does not parse: " ^ e)))
