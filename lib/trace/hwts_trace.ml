(* Library interface module: the span API at the top level (callers
   write [Hwts_trace.Span.enter]). *)

include Trace
