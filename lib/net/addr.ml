module Error = Robust.Error

type t = Tcp of string * int | Unix_path of string

let to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let parse ?(listen = false) s =
  let s = String.trim s in
  let err detail = Result.Error (Error.range ~what:"address" detail) in
  let lo = if listen then 0 else 1 in
  let tcp host port =
    match int_of_string_opt port with
    | Some p when p >= lo && p <= 65535 -> Result.Ok (Tcp (host, p))
    | _ -> err (Printf.sprintf "%S: port must be %d..65535" s lo)
  in
  if s = "" then err "empty address"
  else
    match String.index_opt s ':' with
    | Some 4 when String.sub s 0 4 = "unix" ->
      let p = String.sub s 5 (String.length s - 5) in
      if p = "" then err (Printf.sprintf "%S: unix: needs a socket path" s)
      else Result.Ok (Unix_path p)
    | Some i ->
      let host = String.sub s 0 i in
      tcp
        (if host = "" then "127.0.0.1" else host)
        (String.sub s (i + 1) (String.length s - i - 1))
    | None when int_of_string_opt s <> None -> tcp "127.0.0.1" s
    | None ->
      err (Printf.sprintf "%S: expected HOST:PORT, :PORT, PORT or unix:PATH" s)

let parse_list s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if parts = [] then
    Result.Error (Error.range ~what:"address" "no addresses given")
  else
    List.fold_left
      (fun acc part ->
        match (acc, parse part) with
        | (Result.Error _ as e), _ -> e
        | _, (Result.Error _ as e) -> e
        | Result.Ok addrs, Result.Ok a -> Result.Ok (a :: addrs))
      (Result.Ok []) parts
    |> Result.map List.rev

let sockaddr = function
  | Unix_path p -> Result.Ok (Unix.ADDR_UNIX p)
  | Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | a -> Result.Ok (Unix.ADDR_INET (a, port))
    | exception Failure _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list.(0) with
      | a -> Result.Ok (Unix.ADDR_INET (a, port))
      | exception (Not_found | Invalid_argument _) ->
        Result.Error ("cannot resolve " ^ host)))
