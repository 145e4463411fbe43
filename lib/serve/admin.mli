(** A minimal HTTP admin listener for scrape endpoints.

    One accept domain, HTTP/1.0, GET only, one request per connection —
    enough for [curl]/Prometheus to fetch [/metrics] and [/statusz] from
    a running server without pulling an HTTP stack into the build.
    Non-GET methods answer 405, unknown paths 404, a raising route
    handler 500, and a request or header line over 8 KiB 431 (counted
    in [serve.errors]; the rest of the request is never read). *)

type t

(** A route body is re-evaluated per request (handlers render the
    current summary). *)
type route

val route : content_type:string -> (unit -> string) -> route

(** [start ?backlog ~obs ~addr ~routes ()] binds [addr] (port 0 lets
    the kernel pick; see {!port}) and serves [routes] (paths matched
    exactly, query strings stripped) on a dedicated domain.  [obs] is
    the serving trace the listener counts its errors in. *)
val start :
  ?backlog:int ->
  obs:Obs.t ->
  addr:Unix.sockaddr ->
  routes:(string * route) list ->
  unit ->
  t

(** [sockaddr t] is the actual bound address. *)
val sockaddr : t -> Unix.sockaddr

(** [port t] is the bound TCP port ([None] for Unix-domain sockets). *)
val port : t -> int option

(** [stop t] closes the listener and joins the accept domain.
    Idempotent. *)
val stop : t -> unit
