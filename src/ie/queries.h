// The paper's four evaluation queries (§5.3–§5.5, Appendix 9.1), verbatim
// except Query 3, which the paper writes with correlated subqueries; our
// SQL subset expresses the identical answer with COUNT_IF + HAVING
// (see docs/ARCHITECTURE.md §9).
#ifndef FGPDB_IE_QUERIES_H_
#define FGPDB_IE_QUERIES_H_

namespace fgpdb {
namespace ie {

/// Query 1 (§5.3): every string labeled B-PER, with marginals.
inline constexpr const char* kQuery1 =
    "SELECT STRING FROM TOKEN WHERE LABEL = 'B-PER'";

/// Query 2 (§5.5): the number of person mentions (an aggregate whose answer
/// is a distribution over counts — Figure 7).
inline constexpr const char* kQuery2 =
    "SELECT COUNT(*) FROM TOKEN WHERE LABEL = 'B-PER'";

/// Query 3 (§5.5): documents whose person-mention count equals their
/// organization-mention count.
inline constexpr const char* kQuery3 =
    "SELECT DOC_ID FROM TOKEN GROUP BY DOC_ID "
    "HAVING COUNT_IF(LABEL = 'B-PER') = COUNT_IF(LABEL = 'B-ORG')";

/// Query 4 (Appendix 9.1): person mentions co-occurring (same document)
/// with a token 'Boston' labeled as an organization.
inline constexpr const char* kQuery4 =
    "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 "
    "WHERE T1.STRING = 'Boston' AND T1.LABEL = 'B-ORG' "
    "AND T1.DOC_ID = T2.DOC_ID AND T2.LABEL = 'B-PER'";

}  // namespace ie
}  // namespace fgpdb

#endif  // FGPDB_IE_QUERIES_H_
