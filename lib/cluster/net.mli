(** Typed cross-machine message links.

    A link carries values of one type between the machines of a
    {!Cluster.t} with a fixed latency. Sends during an epoch are queued
    in one outbox per (source, destination) pair, written only by the
    source machine. At the epoch barrier the coordinating domain only
    hands each outbox to its destination's inbox; at the start of its
    next epoch job — inside its own scope, on whichever domain runs it —
    each destination machine schedules its messages into its own timing
    wheel at [send_time + latency], in link-creation order, then source
    machine order, then send order. {!Cluster.run_until} drains once
    more before it returns. Because [latency >= Cluster.lookahead] is
    enforced at link creation, the arrival is always strictly after the
    barrier — the conservative-sync contract that makes parallel epochs
    byte-identical to sequential ones. *)

type 'a t

val link :
  ?name:string ->
  ?latency:Vessel_engine.Time.t ->
  ?flow_of:('a -> int) ->
  Cluster.t ->
  'a t
(** A link spanning all machines of the cluster. [latency] defaults to
    the cluster lookahead and must be at least it ([Invalid_argument]
    otherwise — a shorter latency would break causality). [flow_of]
    maps a payload to a request-flow id (0 = none); when tracing is on,
    each delivery then emits a Perfetto flow step with that id, so
    cross-machine request causality renders as arrows in the viewer. *)

val latency : 'a t -> Vessel_engine.Time.t

val on_receive :
  'a t -> machine:int -> (now:Vessel_engine.Time.t -> src:int -> 'a -> unit) -> unit
(** Install machine [machine]'s receive handler, called from its own
    simulation at the arrival time. At most one handler per machine per
    link. *)

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Queue a message from [src]'s current simulation time. Must be called
    from within [src]'s epoch (its own events). [Invalid_argument] if
    [dst] has no receive handler installed. *)

val sent : 'a t -> int
(** Messages sent so far (sum over senders; coherent between
    {!Cluster.run_until} calls). *)

val delivered : 'a t -> int
(** Messages scheduled into destination wheels so far (sum of
    per-destination counts). Equals {!sent} whenever
    {!Cluster.run_until} returns, for messages sent inside epochs. *)
