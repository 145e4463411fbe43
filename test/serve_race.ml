(* One fresh server process (pool 2, the worked-example KB) whose two
   clients send their first query_local at the same moment.  A race on
   first use — such as two reader domains forcing one lazy value — can
   only show in a fresh process, so test_serve runs this many times.

   Each client connects, proves its reader domain is serving it with a
   [stats] round trip, waits at a barrier, sends the query and reads the
   reply under a receive timeout, so a reader that dies without closing
   the connection shows as a timeout rather than a hang.

   Exit status: 0 when both clients get an answer and [Server.stop]
   joins every reader domain without an exception; 1 when a client times
   out or gets no answer; 3 when stopping raises.  An alarm ends the
   process if anything else blocks. *)

module Engine = Probkb.Engine
module Server = Serve.Server
module Json = Obs.Json

let query =
  {|{"op":"query_local","key":["located_in","Brooklyn","P","New York City","C"]}|}

let client port barrier () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      let ask line =
        output_string oc line;
        output_char oc '\n';
        flush oc;
        match input_line ic with
        | reply -> Json.of_string_opt reply
        | exception (End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _)
          ->
          None
      in
      match ask {|{"op":"stats"}|} with
      | None -> false
      | Some _ -> (
        Atomic.incr barrier;
        while Atomic.get barrier < 2 do
          Domain.cpu_relax ()
        done;
        match ask query with
        | Some reply -> Json.member "found" reply = Some (Json.Bool true)
        | None -> false))

let () =
  ignore (Unix.alarm 30);
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb
  in
  let writer = Engine.Writer.of_session (Engine.session engine) in
  let srv =
    Server.start ~pool:2 ~kb ~writer
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  let port = Option.get (Server.port srv) in
  let barrier = Atomic.make 0 in
  let other = Domain.spawn (client port barrier) in
  let mine = client port barrier () in
  let answered = Domain.join other && mine in
  match Server.stop srv with
  | () -> exit (if answered then 0 else 1)
  | exception e ->
    prerr_endline ("serve_race: stop raised " ^ Printexc.to_string e);
    exit 3
