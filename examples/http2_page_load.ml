(* HTTP/2-aware scheduling (paper §5.5, Fig. 14).

   An MPTCP-aware web server annotates packets with their content class
   (dependency-critical head, initial-view content, below-the-fold
   images). The HTTP/2-aware scheduler keeps critical packets off
   high-RTT subflows — so third-party dependencies are discovered as
   early as possible — and keeps below-the-fold bytes off the metered LTE
   subflow entirely.

   Run with: dune exec examples/http2_page_load.exe *)

module Figures = Mptcp_exp.Figures

let page = Apps.Http2.optimized_page

let () =
  Fmt.pr "page: %d resources, %d B total, %d B below the fold@.@."
    (List.length page.Apps.Http2.resources)
    (Apps.Http2.total_bytes page)
    (Apps.Http2.bytes_of_class page Apps.Http2.Deferred);
  Fmt.pr "%-12s %-13s | %-11s %-9s %-9s | %-11s %-9s %-9s@." "" "" "default:" ""
    "" "http2-aware:" "" "";
  Fmt.pr "%-12s %-13s | %-11s %-9s %-9s | %-11s %-9s %-9s@." "wifi delay"
    "rtt ratio" "dep (ms)" "load (ms)" "lte (kB)" "dep (ms)" "load (ms)"
    "lte (kB)";
  List.iter
    (fun extra ->
      (* the default scheduler's baseline runs with LTE as a regular
         subflow; the HTTP/2-aware scheduler reads LTE's backup flag as
         the non-preferred marker *)
      let load scheduler =
        Figures.page_load ~scheduler ~wifi_extra_delay:extra
      in
      let d = load "default" in
      let h = load "http2_aware" in
      let ratio = (0.005 +. extra) /. 0.020 in
      Fmt.pr "%-12.0f %-13.2f | %-11.1f %-9.1f %-9.1f | %-11.1f %-9.1f %-9.1f@."
        (extra *. 1e3) ratio
        (d.Apps.Http2.dependency_time *. 1e3)
        (d.Apps.Http2.full_load_time *. 1e3)
        (float_of_int d.Apps.Http2.lte_bytes /. 1e3)
        (h.Apps.Http2.dependency_time *. 1e3)
        (h.Apps.Http2.full_load_time *. 1e3)
        (float_of_int h.Apps.Http2.lte_bytes /. 1e3))
    [ 0.0; 0.005; 0.015; 0.035; 0.055 ];
  Fmt.pr
    "@.The HTTP/2-aware scheduler retrieves the dependency information \
     fast even when WiFi degrades, and moves below-the-fold bytes off the \
     metered LTE subflow.@."
