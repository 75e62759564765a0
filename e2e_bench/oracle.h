// The benchmark's independent oracle: the exports recomputed from the
// generator's live rows with plain C++ maps and loops. Nothing here calls
// the relational engine under test; Relations are only read, to compare
// the mediator's answers with the oracle's rows.

#ifndef SQUIRREL_E2E_BENCH_ORACLE_H_
#define SQUIRREL_E2E_BENCH_ORACLE_H_

#include <map>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "workload.h"

namespace squirrel {
namespace e2e_bench {

/// T = π_{r1,r3,s1,s2}(σ_{r4=100} R ⋈_{r2=s1} σ_{s3<50} S), sorted, over
/// rows R(r1, r2, r3, r4) and S(s1, s2, s3).
Rows OracleFigure1(const Rows& r, const Rows& s);

/// E = π_{a1,a2,b1} σ_{a1*a1 + a2 < b2*b2}(A × B) and
/// G = π_{a1,b1} E − π_{a1,b1}(C ⋈_{c1=d1} D), sorted, over rows A(a1, a2),
/// B(b1, b2), C(c1, a1) and D(d1, b1).
std::map<std::string, Rows> OracleFigure4(const Rows& a, const Rows& b,
                                          const Rows& c, const Rows& d);

/// Reads an answer relation as sorted rows in the column order \p attrs.
/// Fails (returns false with \p error set) on a missing attribute, a
/// non-integer value, or a tuple count other than one (answers are sets).
bool ReadRows(const Relation& rel, const std::vector<std::string>& attrs,
              Rows* out, std::string* error);

/// True iff \p got equals \p expected; otherwise \p error names the first
/// difference.
bool SameRows(const Rows& expected, const Rows& got, std::string* error);

}  // namespace e2e_bench
}  // namespace squirrel

#endif  // SQUIRREL_E2E_BENCH_ORACLE_H_
