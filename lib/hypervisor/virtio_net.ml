open Riscv

let sid = 4

type t = {
  bus : Bus.t;
  mutable translate : int64 -> int64 option;
  mutable peer : string -> string option;
  mutable tx_desc_gpa : int64;
  mutable rx_buf_gpa : int64;
  mutable last_rx_len : int64;
  rx : string Queue.t;
  mutable tx_count : int;
  mutable trace : Metrics.Trace.t option;
}

let create ~bus =
  {
    bus;
    translate = (fun _ -> None);
    peer = (fun _ -> None);
    tx_desc_gpa = 0L;
    rx_buf_gpa = 0L;
    last_rx_len = 0L;
    rx = Queue.create ();
    tx_count = 0;
    trace = None;
  }

let set_translate t f = t.translate <- f
let set_trace t tr = t.trace <- Some tr

let obs t =
  match t.trace with
  | Some tr when Metrics.Trace.is_enabled tr -> Some tr
  | _ -> None
let set_peer t f = t.peer <- f

(* One transmit, for an MMIO kick or a ring descriptor alike. A DMA
   the IOPMP denies refuses the packet instead of raising out of the
   hypervisor's run loop.

   TX events are instants, not a B/E span: the peer callback is where
   the workload layer retires one request's span context and installs
   the next one on the shared trace, so a span opened before [peer]
   would close under a different context than it opened with.
   "net.tx" carries the retiring request's context, "net.tx_complete"
   the newly installed one. *)
let transmit t ~data_gpa ~len =
  if len < 0 || len > 65536 then Error "net.len"
  else
    match Bus.read_gpa t.bus ~sid ~translate:t.translate data_gpa len with
    | None -> Error "net.dma"
    | exception (Bus.Fault _ | Invalid_argument _) -> Error "net.refused"
    | Some pkt ->
        t.tx_count <- t.tx_count + 1;
        (match obs t with
        | Some tr ->
            Metrics.Trace.instant tr
              ~args:[ ("len", string_of_int len) ]
              "net.tx"
        | None -> ());
        (match t.peer pkt with
        | Some reply -> Queue.add reply t.rx
        | None -> ());
        (match obs t with
        | Some tr ->
            Metrics.Trace.instant tr
              ~args:[ ("rx_queued", string_of_int (Queue.length t.rx)) ]
              "net.tx_complete"
        | None -> ());
        Ok len

(* The packet leaves the queue only once it is in the guest's buffer,
   for an RX fill kick and a ring descriptor alike. *)
let receive t ~data_gpa ~len =
  if Queue.is_empty t.rx then Ok 0
  else begin
    let pkt = Queue.peek t.rx in
    let n = String.length pkt in
    if n > len then Error "net.rx_overflow"
    else
      match Bus.write_gpa t.bus ~sid ~translate:t.translate data_gpa pkt with
      | true ->
          ignore (Queue.pop t.rx : string);
          Ok n
      | false -> Error "net.dma"
      | exception (Bus.Fault _ | Invalid_argument _) -> Error "net.refused"
  end

(* The TX kick: decode the descriptor (length 4 B | pad 4 B | data GPA
   8 B) and transmit. *)
let do_tx t =
  match Bus.read_gpa t.bus ~sid ~translate:t.translate t.tx_desc_gpa 16 with
  | None | (exception Bus.Fault _) -> ()
  | Some desc -> (
      let len = Int32.to_int (String.get_int32_le desc 0) land 0xFFFF_FFFF in
      match transmit t ~len ~data_gpa:(String.get_int64_le desc 8) with
      | Ok _ | Error _ -> ())

(* The RX fill: no length bound, since the register file carries none. *)
let do_rx_fill t =
  let tr = obs t in
  Option.iter (fun tr -> Metrics.Trace.span_begin tr "net.rx_fill") tr;
  let pending = not (Queue.is_empty t.rx) in
  let delivered = receive t ~data_gpa:t.rx_buf_gpa ~len:max_int in
  t.last_rx_len <- Int64.of_int (Result.value delivered ~default:0);
  match tr with
  | None -> ()
  | Some tr ->
      let args = [ ("len", Int64.to_string t.last_rx_len) ] in
      if pending && Result.is_ok delivered then
        Metrics.Trace.instant tr ~args "net.rx_complete";
      Metrics.Trace.span_end tr ~args "net.rx_fill"

let mmio_read t off _len =
  match Int64.to_int off with 0x10 -> t.last_rx_len | _ -> 0L

let mmio_write t off _len v =
  match Int64.to_int off with
  | 0x00 -> t.tx_desc_gpa <- v
  | 0x08 -> if v = 1L then do_tx t else if v = 2L then do_rx_fill t
  | 0x18 -> t.rx_buf_gpa <- v
  | _ -> ()

let tx_count t = t.tx_count
