type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let default_align ncols =
  List.init ncols (fun i -> if i = 0 then Left else Right)

let render ?align ~header rows =
  let ncols = List.length header in
  let align = match align with Some a -> a | None -> default_align ncols in
  let align = Array.of_list align in
  let norm row =
    let n = List.length row in
    if n >= ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map norm rows in
  let widths = Array.of_list (List.map String.length header) in
  let widen row =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  List.iter widen rows;
  let line row =
    let cells =
      List.mapi
        (fun i cell ->
          let a = if i < Array.length align then align.(i) else Right in
          pad a widths.(i) cell)
        row
    in
    String.concat "  " cells
  in
  let rule =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let body = List.map line rows in
  String.concat "\n" ((line header :: rule :: body) @ [ "" ])

let print ?align ~header rows = print_string (render ?align ~header rows)
let fixed d x = Printf.sprintf "%.*f" d x
let signed_pct x = Printf.sprintf "%+.2f" x

let heading title =
  let bar = String.make (String.length title + 8) '=' in
  Printf.sprintf "\n%s\n=== %s ===\n%s\n" bar title bar

let section title = print_string (heading title)
