module J = Hwts_obs.Json

type row = (string * J.t) list

let summarize = function
  | [] -> invalid_arg "Kit.summarize: no legs"
  | first :: _ as legs ->
    let column k = List.filter_map (List.assoc_opt k) legs in
    List.map
      (fun (k, v) ->
        match v with
        | J.Int _ -> (k, J.Int (Family.median (List.filter_map J.to_int (column k))))
        | J.Float _ -> (k, J.Float (Family.median (List.filter_map J.to_float (column k))))
        | _ -> (k, v))
      first

let num row k = Option.value ~default:nan (Family.num (J.Obj row) k)
let best legs k = List.fold_left (fun m l -> Float.max m (num l k)) 0. legs

let best_ratio a b k =
  let d = best b k in
  if d <= 0. then 1. else best a k /. d

let paired ~arms ~trials run =
  let legs = Array.make arms [] in
  for trial = 0 to trials - 1 do
    for i = 0 to arms - 1 do
      let arm = (trial + i) mod arms in
      legs.(arm) <- run ~trial arm :: legs.(arm)
    done
  done;
  legs

let harness_leg ?(after_warmup = ignore) make config ~warmup =
  Gc.compact ();
  let target = Workload.Harness.make_target make config in
  if warmup > 0 then
    ignore
      (Workload.Harness.run_prepared target
         { config with Workload.Harness.fixed_ops = Some warmup });
  after_warmup ();
  Workload.Harness.run_prepared target config

let counts ~what s =
  match
    List.filter_map
      (fun tok ->
        match int_of_string_opt (String.trim tok) with
        | Some n when n >= 1 -> Some n
        | _ -> None)
      (String.split_on_char ',' s)
  with
  | [] -> failwith ("no valid " ^ what ^ " in " ^ s)
  | ns -> List.sort_uniq compare ns

let provider name =
  match Workload.Targets.ts_of_name name with
  | Some ts -> ts
  | None ->
    Printf.eprintf "unknown provider %S; known providers:\n%s" name
      (Workload.Targets.provider_help ());
    exit 2

let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")

let with_artifact ~path ~family meta body =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let emit ty fields =
    output_string oc
      (J.to_string (J.Obj (("name", J.Str family) :: ("type", J.Str ty) :: fields)));
    output_char oc '\n'
  in
  emit "meta"
    (meta
    @ [
        ("cores", J.Int (Domain.recommended_domain_count ()));
        ("git_rev", J.Str (git_rev ()));
      ]);
  body emit
