(** Prometheus text-format exposition of an {!Obs.Summary}.

    Counters render as [<name>_total] counter families, timers as
    [<name>_seconds_total], gauges keep their (mangled) name, histograms
    expand to [_bucket] (cumulative, occupied [le] bounds plus [+Inf]),
    [_sum] and [_count].  Dots and other non-identifier characters
    mangle to ['_'].

    Labelled series: a metric recorded under ["base|k=v,k2=v2"] (the
    serving layer records per-op request latencies as
    ["serve.request_seconds|op=query_local"]) renders as family [base]
    with labels [{k="v",k2="v2"}]; all series of a family share one
    [# TYPE] line. *)

(** [render summary] is the full exposition text (trailing newline
    included). *)
val render : Obs.Summary.t -> string

(** [split_labels name] splits the ["base|k=v,..."] convention into base
    name and labels (empty without ['|']). *)
val split_labels : string -> string * (string * string) list

(** [hist_json h] is the compact JSON view used by [/statusz]:
    count/sum/p50/p90/p99/max.  Call only on non-empty histograms (the
    quantiles of an empty histogram are [nan], which JSON cannot
    carry). *)
val hist_json : Obs.Hist.t -> Obs.Json.t
