(** Virtio-style network device with a host-side packet peer.

    The guest transmits by filling a descriptor (length + buffer GPA) in
    shared memory and kicking; it receives by asking the device to copy
    the next pending packet into a pre-programmed RX buffer. A host-side
    peer (the benchmark client, for Redis) is a callback that consumes
    TX packets and may enqueue RX replies.

    Register map (offsets within the device's MMIO slot):
    - [0x00] (write, 8 B): TX descriptor GPA (length 4 B | pad 4 B | data GPA 8 B)
    - [0x08] (write, 4 B): value 1 = TX kick; value 2 = RX fill
    - [0x10] (read, 4 B): length of the packet delivered by the last RX
      fill, 0 when the RX queue was empty
    - [0x18] (write, 8 B): RX buffer GPA *)

type t

val sid : int
val create : bus:Riscv.Bus.t -> t
val set_translate : t -> (int64 -> int64 option) -> unit

val set_trace : t -> Metrics.Trace.t -> unit
(** Attach the platform flight recorder. While it is enabled the
    device emits ["net.tx"]/["net.tx_complete"] instants around the
    peer callback and a ["net.rx_fill"] span with a
    ["net.rx_complete"] instant per delivered packet — all stamped
    with whatever span context the workload installed on the trace,
    which is how a request's virtio completion joins its span tree. *)

val set_peer : t -> (string -> string option) -> unit
(** [set_peer t f]: [f packet] is called on every TX packet; a [Some
    reply] is appended to the RX queue. The device keeps no copy of
    what it sent: a caller that wants the packets collects them here. *)

val inject_rx : t -> string -> unit
(** Queue a packet for the guest (client-initiated traffic). *)

val mmio_read : t -> int64 -> int -> int64
val mmio_write : t -> int64 -> int -> int64 -> unit

val serve_ring_tx : t -> data_gpa:int64 -> len:int -> (int, string) result
(** Exitless-ring TX: DMA the packet out and run the peer callback
    (replies land on the RX queue). Returns bytes sent or an error
    label; may raise [Riscv.Bus.Fault] on an IOPMP reject. *)

val serve_ring_rx : t -> data_gpa:int64 -> len:int -> (int, string) result
(** Exitless-ring RX fill: deliver the next pending packet into the
    descriptor's buffer. [Ok 0] when the queue is empty; an oversized
    packet is left queued and reported as an error. *)

val tx_count : t -> int
(** Packets transmitted so far, over MMIO kicks and the exitless ring. *)

val rx_pending : t -> int
