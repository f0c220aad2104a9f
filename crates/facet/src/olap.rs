//! OLAP-style rollups over discovered hierarchies.
//!
//! §3.2.1 wants the faceted interface to offer "aspects from traditional
//! OLAP". The natural hierarchy Impliance always has — with no schema
//! design — is calendar time over `Timestamp` leaves: year → month → day.
//! [`time_rollup`] aggregates a measure path along that hierarchy.

use std::collections::BTreeMap;

use impliance_docmodel::{Document, Value};

/// Calendar rollup granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupLevel {
    /// Group by year (`"2006"`).
    Year,
    /// Group by year-month (`"2006-11"`).
    Month,
    /// Group by date (`"2006-11-03"`).
    Day,
}

/// One rollup output row.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupRow {
    /// The time bucket label.
    pub bucket: String,
    /// Documents in the bucket.
    pub count: u64,
    /// Sum of the measure (0.0 when no measure requested/present).
    pub sum: f64,
}

/// Convert epoch milliseconds to a civil (year, month, day) in UTC, using
/// the days-from-civil inverse algorithm (Howard Hinnant's `civil_from_days`).
pub fn civil_from_millis(millis: i64) -> (i32, u32, u32) {
    let days = millis.div_euclid(86_400_000);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    let y = if m <= 2 { y + 1 } else { y } as i32;
    (y, m, d)
}

fn bucket_label(millis: i64, level: RollupLevel) -> String {
    let (y, m, d) = civil_from_millis(millis);
    match level {
        RollupLevel::Year => format!("{y:04}"),
        RollupLevel::Month => format!("{y:04}-{m:02}"),
        RollupLevel::Day => format!("{y:04}-{m:02}-{d:02}"),
    }
}

/// Roll documents up along the calendar hierarchy.
///
/// `time_path` must hold `Timestamp` leaves (ISO-normalized date
/// annotations can be converted upstream); documents without one are
/// skipped. `measure_path`, when given, is summed per bucket.
pub fn time_rollup(
    docs: &[&Document],
    time_path: &str,
    measure_path: Option<&str>,
    level: RollupLevel,
) -> Vec<RollupRow> {
    let mut buckets: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for doc in docs {
        let ts = doc.root().values_at(time_path).find_map(|v| match v {
            Value::Timestamp(t) => Some(*t),
            _ => None,
        });
        let Some(ts) = ts else { continue };
        let label = bucket_label(ts, level);
        let entry = buckets.entry(label).or_insert((0, 0.0));
        entry.0 += 1;
        if let Some(mp) = measure_path {
            if let Some(v) = doc.root().values_at(mp).next() {
                if let Some(f) = v.as_f64() {
                    entry.1 += f;
                }
            }
        }
    }
    buckets
        .into_iter()
        .map(|(bucket, (count, sum))| RollupRow { bucket, count, sum })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use impliance_docmodel::{DocId, DocumentBuilder, SourceFormat};

    /// Millis for a UTC date at midnight (test helper built on the same
    /// civil algorithm in reverse).
    fn millis(y: i64, m: i64, d: i64) -> i64 {
        // days_from_civil
        let y_adj = if m <= 2 { y - 1 } else { y };
        let era = y_adj.div_euclid(400);
        let yoe = y_adj - era * 400;
        let mp = if m > 2 { m - 3 } else { m + 9 };
        let doy = (153 * mp + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        (era * 146_097 + doe - 719_468) * 86_400_000
    }

    #[test]
    fn civil_roundtrip_known_dates() {
        assert_eq!(civil_from_millis(0), (1970, 1, 1));
        assert_eq!(civil_from_millis(millis(2007, 1, 10)), (2007, 1, 10));
        assert_eq!(civil_from_millis(millis(2000, 2, 29)), (2000, 2, 29)); // leap
        assert_eq!(civil_from_millis(millis(1969, 12, 31)), (1969, 12, 31)); // pre-epoch
        assert_eq!(
            civil_from_millis(millis(2006, 12, 31) + 86_399_999),
            (2006, 12, 31)
        );
    }

    fn docs() -> Vec<Document> {
        [
            (1u64, millis(2006, 11, 3), 100.0),
            (2, millis(2006, 11, 20), 50.0),
            (3, millis(2006, 12, 1), 25.0),
            (4, millis(2007, 1, 10), 10.0),
        ]
        .into_iter()
        .map(|(id, ts, amount)| {
            DocumentBuilder::new(DocId(id), SourceFormat::Json, "claims")
                .field("filed", Value::Timestamp(ts))
                .field("amount", amount)
                .build()
        })
        .collect()
    }

    #[test]
    fn rollup_by_year() {
        let ds = docs();
        let refs: Vec<&Document> = ds.iter().collect();
        let rows = time_rollup(&refs, "filed", Some("amount"), RollupLevel::Year);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            RollupRow {
                bucket: "2006".into(),
                count: 3,
                sum: 175.0
            }
        );
        assert_eq!(
            rows[1],
            RollupRow {
                bucket: "2007".into(),
                count: 1,
                sum: 10.0
            }
        );
    }

    #[test]
    fn rollup_by_month_and_day() {
        let ds = docs();
        let refs: Vec<&Document> = ds.iter().collect();
        let months = time_rollup(&refs, "filed", None, RollupLevel::Month);
        assert_eq!(months.len(), 3);
        assert_eq!(months[0].bucket, "2006-11");
        assert_eq!(months[0].count, 2);
        let days = time_rollup(&refs, "filed", None, RollupLevel::Day);
        assert_eq!(days.len(), 4);
        assert_eq!(days[0].bucket, "2006-11-03");
    }

    #[test]
    fn documents_without_timestamp_skipped() {
        let d = DocumentBuilder::new(DocId(9), SourceFormat::Json, "c")
            .field("amount", 5.0)
            .build();
        let binding = [&d];
        let rows = time_rollup(&binding, "filed", Some("amount"), RollupLevel::Year);
        assert!(rows.is_empty());
    }
}
