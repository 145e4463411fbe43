(* A deliberately tiny HTTP/1.0 admin listener: one accept domain, one
   request per connection, GET only.  It exists to expose /metrics and
   /statusz to scrapers (Prometheus, curl) without pulling an HTTP stack
   into the build; it is not a general web server. *)

type route = { content_type : string; body : unit -> string }

type t = {
  fd : Unix.file_descr;
  bound : Unix.sockaddr;
  routes : (string * route) list;
  trace : Obs.t;
  stop : bool Atomic.t;
  mutable dom : unit Domain.t option;
  mutable stopped : bool;
}

let route ~content_type body = { content_type; body }

let sockaddr t = t.bound

let port t =
  match t.bound with Unix.ADDR_INET (_, p) -> Some p | Unix.ADDR_UNIX _ -> None

let respond oc ~status ~content_type body =
  output_string oc
    (Printf.sprintf
       "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n"
       status content_type (String.length body));
  output_string oc body;
  flush oc

(* The longest request or header line a scraper may send: HTTP servers
   commonly cap a header line at 8 KiB. *)
let max_line_bytes = 8192

(* Request line [METHOD /path?query HTTP/1.x]; headers are read up to
   the blank line and discarded. *)
let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let input_line () = Protocol.input_line_bounded ~max:max_line_bytes ic in
  (try
     let request = input_line () in
     let rec drain_headers () =
       match input_line () with
       | "" | "\r" -> ()
       | _ -> drain_headers ()
       | exception End_of_file -> ()
     in
     drain_headers ();
     match String.split_on_char ' ' (String.trim request) with
     | meth :: target :: _ when meth <> "GET" ->
       ignore target;
       respond oc ~status:"405 Method Not Allowed" ~content_type:"text/plain"
         "only GET is supported\n"
     | _ :: target :: _ -> (
       let path =
         match String.index_opt target '?' with
         | Some i -> String.sub target 0 i
         | None -> target
       in
       match List.assoc_opt path t.routes with
       | Some r -> (
         match r.body () with
         | body -> respond oc ~status:"200 OK" ~content_type:r.content_type body
         | exception e ->
           respond oc ~status:"500 Internal Server Error"
             ~content_type:"text/plain"
             (Printexc.to_string e ^ "\n"))
       | None ->
         respond oc ~status:"404 Not Found" ~content_type:"text/plain"
           (Printf.sprintf "no route %s\n" path))
     | _ ->
       respond oc ~status:"400 Bad Request" ~content_type:"text/plain"
         "malformed request line\n"
   with
  | End_of_file | Sys_error _ -> ()
  | Unix.Unix_error (_, _, _) -> ()
  | Protocol.Line_too_long -> (
    Obs.incr t.trace "serve.errors";
    try
      respond oc ~status:"431 Request Header Fields Too Large"
        ~content_type:"application/json"
        (Obs.Json.to_string (Protocol.error_json "request line too long")
        ^ "\n")
    with Sys_error _ | Unix.Unix_error (_, _, _) -> ()));
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop then ()
    else begin
      (match Unix.accept t.fd with
      | fd, _ -> if Atomic.get t.stop then Unix.close fd else handle_conn t fd
      | exception Unix.Unix_error (_, _, _) -> ());
      loop ()
    end
  in
  loop ()

let start ?(backlog = 8) ~obs ~addr ~routes () =
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX path -> if Sys.file_exists path then Sys.remove path);
  Unix.bind fd addr;
  Unix.listen fd backlog;
  let t =
    {
      fd;
      bound = Unix.getsockname fd;
      routes;
      trace = obs;
      stop = Atomic.make false;
      dom = None;
      stopped = false;
    }
  in
  t.dom <- Some (Domain.spawn (fun () -> accept_loop t));
  t

(* Closing the listener does not wake a blocked accept() on Linux; a
   throwaway connect does (same trick as Server.poke_accept). *)
let poke t =
  let domain =
    match t.bound with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd ->
    (try Unix.connect fd t.bound with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop true;
    poke t;
    (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ());
    (match t.dom with
    | Some d ->
      Domain.join d;
      t.dom <- None
    | None -> ());
    match t.bound with
    | Unix.ADDR_UNIX path when Sys.file_exists path -> (
      try Sys.remove path with Sys_error _ -> ())
    | _ -> ()
  end
