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
let inject_rx t pkt = Queue.add pkt t.rx

let dma_read_gpa t gpa len =
  let buf = Buffer.create len in
  let rec go off =
    if off >= len then Some (Buffer.contents buf)
    else begin
      let g = Int64.add gpa (Int64.of_int off) in
      match t.translate g with
      | None -> None
      | Some pa ->
          let in_page = 4096 - Int64.to_int (Int64.logand g 0xFFFL) in
          let chunk = min in_page (len - off) in
          Buffer.add_string buf (Bus.dma_read t.bus ~sid pa chunk);
          go (off + chunk)
    end
  in
  go 0

let dma_write_gpa t gpa data =
  let len = String.length data in
  let rec go off =
    if off >= len then true
    else begin
      let g = Int64.add gpa (Int64.of_int off) in
      match t.translate g with
      | None -> false
      | Some pa ->
          let in_page = 4096 - Int64.to_int (Int64.logand g 0xFFFL) in
          let chunk = min in_page (len - off) in
          Bus.dma_write t.bus ~sid pa (String.sub data off chunk);
          go (off + chunk)
    end
  in
  go 0

let le_u64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

(* TX events are instants, not a B/E span: the peer callback is where
   the workload layer retires one request's span context and installs
   the next one on the shared trace, so a span opened before [peer]
   would close under a different context than it opened with.
   "net.tx" carries the retiring request's context, "net.tx_complete"
   the newly installed one. *)
let do_tx t =
  match dma_read_gpa t t.tx_desc_gpa 16 with
  | None -> ()
  | Some desc ->
      let len = Int64.to_int (Int64.logand (le_u64 desc 0) 0xFFFFFFFFL) in
      let data_gpa = le_u64 desc 8 in
      if len >= 0 && len <= 65536 then begin
        match dma_read_gpa t data_gpa len with
        | None -> ()
        | Some pkt -> begin
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
            match obs t with
            | Some tr ->
                Metrics.Trace.instant tr
                  ~args:[ ("rx_queued", string_of_int (Queue.length t.rx)) ]
                  "net.tx_complete"
            | None -> ()
          end
      end

let do_rx_fill t =
  let tr = obs t in
  (match tr with
  | Some tr -> Metrics.Trace.span_begin tr "net.rx_fill"
  | None -> ());
  (if Queue.is_empty t.rx then t.last_rx_len <- 0L
   else begin
     let pkt = Queue.pop t.rx in
     if dma_write_gpa t t.rx_buf_gpa pkt then begin
       t.last_rx_len <- Int64.of_int (String.length pkt);
       match tr with
       | Some tr ->
           Metrics.Trace.instant tr
             ~args:[ ("len", string_of_int (String.length pkt)) ]
             "net.rx_complete"
       | None -> ()
     end
     else t.last_rx_len <- 0L
   end);
  match tr with
  | Some tr ->
      Metrics.Trace.span_end tr
        ~args:[ ("len", Int64.to_string t.last_rx_len) ]
        "net.rx_fill"
  | None -> ()

(* Non-MMIO service entries for the exitless ring; the TX side runs the
   same peer callback as [do_tx] so replies land on the RX queue. May
   raise [Bus.Fault] from IOPMP-checked DMA. *)
let serve_ring_tx t ~data_gpa ~len =
  if len < 0 || len > 65536 then Error "net.len"
  else
    match dma_read_gpa t data_gpa len with
    | None -> Error "net.dma"
    | Some pkt ->
        t.tx_count <- t.tx_count + 1;
        (match t.peer pkt with
        | Some reply -> Queue.add reply t.rx
        | None -> ());
        Ok len

let serve_ring_rx t ~data_gpa ~len =
  if Queue.is_empty t.rx then Ok 0
  else begin
    let pkt = Queue.peek t.rx in
    let n = String.length pkt in
    if n > len then Error "net.rx_overflow"
    else if dma_write_gpa t data_gpa pkt then begin
      ignore (Queue.pop t.rx);
      Ok n
    end
    else Error "net.dma"
  end

let mmio_read t off _len =
  match Int64.to_int off with 0x10 -> t.last_rx_len | _ -> 0L

let mmio_write t off _len v =
  match Int64.to_int off with
  | 0x00 -> t.tx_desc_gpa <- v
  | 0x08 -> if v = 1L then do_tx t else if v = 2L then do_rx_fill t
  | 0x18 -> t.rx_buf_gpa <- v
  | _ -> ()

let tx_count t = t.tx_count
let rx_pending t = Queue.length t.rx
