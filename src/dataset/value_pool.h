#ifndef CODES_DATASET_VALUE_POOL_H_
#define CODES_DATASET_VALUE_POOL_H_

#include <string>

#include "common/rng.h"
#include "sqlengine/value.h"

namespace codes {

/// Kinds of synthetic cell values the populator can produce. Each column
/// concept in a domain spec declares its kind; the populator draws from
/// the corresponding pool.
enum class ValueKind {
  kPersonName,  ///< "Sarah Martinez"
  kGivenName,   ///< "Sarah"
  kCity,        ///< "Jesenik"
  kCountry,     ///< "Canada"
  kCompany,     ///< "Northwind Capital"
  kTitleWords,  ///< 1-3 capitalized words: song/paper/product titles
  kWord,        ///< single lowercase word (categories, genres)
  kYear,        ///< 1950..2023
  kSmallInt,    ///< 0..100
  kBigInt,      ///< 0..1e6
  kMoney,       ///< 10.00..99999.99
  kRate,        ///< 0.0..1.0
  kCode,        ///< "AB-1234"
  kDate,        ///< "YYYY-MM-DD" text
  kGender,      ///< 'M' / 'F'
  kYesNo,       ///< 'yes' / 'no'
  kEmail,       ///< derived from a name
  kPhone,       ///< digits
  kSequentialId,  ///< handled by the populator, not the pool
};

/// SQL storage type for a kind.
sql::DataType TypeOfKind(ValueKind kind);

/// Draws one value of the given kind. `row` is the row index, used by
/// kSequentialId and to decorrelate value streams.
sql::Value DrawValue(ValueKind kind, int row, Rng& rng);

}  // namespace codes

#endif  // CODES_DATASET_VALUE_POOL_H_
