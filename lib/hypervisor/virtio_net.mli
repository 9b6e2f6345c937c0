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
      fill; 0 when the RX queue was empty or the packet could not be
      delivered (it then stays queued for the next fill)
    - [0x18] (write, 8 B): RX buffer GPA *)

type t

val sid : int
val create : bus:Riscv.Bus.t -> t
val set_translate : t -> (int64 -> int64 option) -> unit

val set_trace : t -> Metrics.Trace.t -> unit
(** Attach the platform flight recorder. While it is enabled every
    {!transmit}, kicked or from the ring, emits ["net.tx"]/
    ["net.tx_complete"] instants around the peer callback, and every RX
    fill kick a ["net.rx_fill"] span with a ["net.rx_complete"] instant
    when it delivered a packet — all stamped
    with whatever span context the workload installed on the trace,
    which is how a request's virtio completion joins its span tree. *)

val set_peer : t -> (string -> string option) -> unit
(** [set_peer t f]: [f packet] is called on every TX packet; a [Some
    reply] is appended to the RX queue. The device keeps no copy of
    what it sent: a caller that wants the packets collects them here. *)

val mmio_read : t -> int64 -> int -> int64
val mmio_write : t -> int64 -> int -> int64 -> unit

val transmit : t -> data_gpa:int64 -> len:int -> (int, string) result
(** Send one packet, for a TX kick or a ring descriptor: DMA it out of
    guest memory, count it and run the peer callback (a reply lands on
    the RX queue). [Ok] bytes sent, or an error label for a length over
    64 KiB, an unmapped page or an IOPMP-denied DMA. Never raises. *)

val receive : t -> data_gpa:int64 -> len:int -> (int, string) result
(** Deliver the next pending packet into a guest buffer of at most [len]
    bytes (an RX fill kick passes [max_int]: its register file carries
    no length). [Ok] the packet's length, [Ok 0] when none is pending.
    A packet leaves the queue only once it is in the buffer; one too
    large, or whose DMA fails, stays queued behind an error label.
    Never raises. *)

val tx_count : t -> int
(** Packets transmitted so far, over MMIO kicks and the exitless ring. *)
