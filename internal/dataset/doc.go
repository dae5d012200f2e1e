// Package dataset provides the transaction-database substrate used by the
// experiments in Section 7 of the paper.
//
// The paper evaluates on three transaction datasets — BMS-POS, Kosarak and the
// IBM Quest synthetic dataset T40I10D100K — where each record is a set of item
// identifiers and each query is the count of transactions containing a given
// item (a monotonic counting query of sensitivity 1).
//
// The two retail logs are not redistributable, so this package supplies
// synthetic stand-ins calibrated to their published statistics (transaction
// count, item cardinality, mean transaction length, heavy-tailed item
// popularity) plus a from-scratch implementation of the IBM Quest generator.
// The mechanisms under test only ever observe the item-count histogram, so a
// histogram with matching scale and skew preserves every behaviour the paper
// measures. See DESIGN.md §5 for the substitution argument.
//
// The package also implements the FIMI text format (one transaction per line,
// space-separated item ids) so that real datasets can be dropped in when
// available.
//
// Transactions are stored in immutable blocks of BlockRecords records, each
// a flat item array plus end offsets. Appending shares every full block and
// copies only the partial tail, so databases derived by AppendRecords cost
// O(delta + one block + number of blocks) and never disturb the original.
package dataset
