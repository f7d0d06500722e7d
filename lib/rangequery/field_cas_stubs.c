/* Compare-and-set on any field of a mutable block.
 *
 * [Atomic.compare_and_set] is the runtime's caml_atomic_cas_field applied
 * to field 0 of a one-field block; this is the same function at a field
 * the caller names.  It keeps everything the runtime CAS does: a
 * sequentially consistent compare-exchange (a plain compare-and-store
 * while only one domain runs) followed by the write barrier that records
 * a major-heap field now pointing into the minor heap.  It neither
 * allocates nor raises, so the OCaml side declares it [@@noalloc], as
 * the compiler does for [%atomic_cas].
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>

value hwts_cas_field(value obj, value field, value oldval, value newval)
{
  return Val_bool(caml_atomic_cas_field(obj, Long_val(field), oldval, newval));
}
