(* Append-only checkpoint file.  One header line binding the journal to
   a spec fingerprint, then one length-framed line per completed job:

     mtsize-runner-journal 1 <fingerprint>
     <job-id> <payload-length> <manifest-fragment-json>

   The fragment is the job's manifest entry, verbatim (single-line
   compact JSON from Json.to_string) — resume does not re-parse or
   re-serialize it, so a replayed entry is byte-identical to the run
   that wrote it.  The length header makes torn tails detectable
   without trusting the payload bytes: load accepts a record only when
   the id, the length, the full payload and the terminating newline are
   all present and consistent.  Each append is flushed before the call
   returns; a process killed mid-write therefore leaves at most one
   damaged last record — a truncated length header, a truncated
   payload, or a missing newline — and load drops it (the job simply
   re-runs).  Records must be framed: an unframed <job-id> <json> line
   (the record format before the length header) is treated as torn, so
   its job and every later one re-run. *)

let magic = "mtsize-runner-journal 1"

let start ~path ~fingerprint =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      output_char oc ' ';
      output_string oc fingerprint;
      output_char oc '\n')

let append ~path ~id ~json =
  if String.contains json '\n' then
    invalid_arg "Runner.Journal.append: fragment contains a newline";
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc id;
      output_char oc ' ';
      output_string oc (string_of_int (String.length json));
      output_char oc ' ';
      output_string oc json;
      output_char oc '\n';
      flush oc)

let is_digits s = s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s

(* One record starting at [pos]:
   - [`Entry ((id, json), next)] — a complete, consistent record;
   - [`Torn] — a damaged (truncated/garbled) record: stop trusting the
     file from here on.  Every way a flushed-then-killed writer can
     leave bytes behind lands here: no newline yet, a length header cut
     mid-number (or missing entirely), or a payload shorter than its
     declared length.  An unframed record lands here too.  Never
     raises. *)
let read_record src pos =
  match String.index_from_opt src pos '\n' with
  | None ->
    (* unterminated tail: could be a torn header or a torn payload —
       either way the record is incomplete *)
    `Torn
  | Some e ->
    let line = String.sub src pos (e - pos) in
    let next = e + 1 in
    if line = "" then `Blank next
    else begin
      match String.index_opt line ' ' with
      | None -> `Torn (* no field separator: a header cut after the id *)
      | Some sp ->
        let id = String.sub line 0 sp in
        let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
        (match String.index_opt rest ' ' with
         | Some sp2 when is_digits (String.sub rest 0 sp2) ->
           (* the payload must span exactly the declared byte count *)
           let declared = int_of_string (String.sub rest 0 sp2) in
           let json =
             String.sub rest (sp2 + 1) (String.length rest - sp2 - 1)
           in
           if String.length json = declared then `Entry ((id, json), next)
           else `Torn
         | _ -> `Torn)
    end

let load ~path ~fingerprint =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let src = really_input_string ic len in
        match String.index_opt src '\n' with
        | None -> Error (path ^ ": truncated journal header")
        | Some nl ->
          let header = String.sub src 0 nl in
          let expect = magic ^ " " ^ fingerprint in
          if header <> expect then
            if String.length header >= String.length magic
               && String.sub header 0 (String.length magic) = magic
            then
              Error
                (path
                 ^ ": journal was written for a different job file \
                    (fingerprint mismatch); delete it or use --fresh")
            else Error (path ^ ": not a runner journal")
          else begin
            (* only complete, self-consistent records count: a kill
               mid-append must never replay a half-written fragment *)
            let entries = ref [] in
            let pos = ref (nl + 1) in
            (try
               while !pos < len do
                 match read_record src !pos with
                 | `Entry (e, next) ->
                   entries := e :: !entries;
                   pos := next
                 | `Blank next -> pos := next
                 | `Torn -> raise Exit (* damaged: stop trusting *)
               done
             with Exit -> ());
            Ok (List.rev !entries)
          end)
