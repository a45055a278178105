//! SQL execution against the [`Database`] engine.

use crate::engine::{Database, DbError};
use crate::schema::{ColumnDef, Schema};
use crate::sql::syntax::{parse, Projection, SelectStmt, Statement};
use crate::value::Value;

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// Rows with named columns (SELECT).
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Output rows.
        rows: Vec<Vec<Value>>,
    },
    /// Number of rows affected (INSERT/DELETE).
    Affected(usize),
    /// DDL acknowledged (CREATE/DROP).
    Ok,
}

impl ExecResult {
    /// Convenience accessor for SELECT results.
    pub fn rows(&self) -> &[Vec<Value>] {
        match self {
            ExecResult::Rows { rows, .. } => rows,
            _ => &[],
        }
    }

    /// First cell of the first row (common for aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows().first().and_then(|r| r.first())
    }
}

/// Parse and execute one SQL statement against the database.
///
/// Malformed statements fail with [`DbError::Spec`] carrying the byte
/// span of the offending token. `ESTIMATE` dialect statements need an
/// engine context (model registry, plan cache, scheduler, RNG) and are
/// rejected here — run them through
/// [`crate::session::Session::execute`].
pub fn execute(db: &Database, sql: &str) -> Result<ExecResult, DbError> {
    execute_statement(db, parse(sql)?)
}

/// Execute a parsed plain-SQL statement.
pub fn execute_statement(db: &Database, stmt: Statement) -> Result<ExecResult, DbError> {
    match stmt {
        Statement::Select(s) => select(db, s),
        Statement::Insert { table, rows } => {
            let n = db.insert_many(&table, rows)?;
            Ok(ExecResult::Affected(n))
        }
        Statement::CreateTable { table, columns } => {
            let defs = columns
                .into_iter()
                .map(|(name, dtype, nullable)| {
                    let def = ColumnDef::new(name, dtype);
                    if nullable {
                        def.nullable()
                    } else {
                        def
                    }
                })
                .collect();
            let schema = Schema::new(defs).map_err(crate::table::TableError::Schema)?;
            db.create_table(table, schema)?;
            Ok(ExecResult::Ok)
        }
        Statement::Delete { table, predicate } => {
            let n = db.with_table_mut(&table, |t| match predicate {
                Some(p) => t.delete_where(&p),
                None => {
                    let all = crate::expr::lit(true);
                    t.delete_where(&all)
                }
            })??;
            Ok(ExecResult::Affected(n))
        }
        Statement::DropTable { table } => {
            db.drop_table(&table)?;
            Ok(ExecResult::Ok)
        }
        Statement::Estimate(_)
        | Statement::ExplainEstimate(_)
        | Statement::Rank(_)
        | Statement::ExplainRank(_)
        | Statement::ShowModels
        | Statement::ShowDiagnostics => Err(DbError::Proc(
            "ESTIMATE/EXPLAIN/SHOW statements require a session (use Session::execute)".into(),
        )),
    }
}

fn select(db: &Database, s: SelectStmt) -> Result<ExecResult, DbError> {
    db.with_table(&s.table, |t| -> Result<ExecResult, DbError> {
        // Aggregate short-circuit.
        if let Projection::Aggregate(agg) = &s.projection {
            let v = t.aggregate(agg, s.predicate.as_ref())?;
            return Ok(ExecResult::Rows {
                columns: vec![format!("{agg:?}").to_lowercase()],
                rows: vec![vec![v]],
            });
        }

        let mut rows = match &s.predicate {
            Some(p) => t.filter(p)?,
            None => t.scan().map(|r| r.to_vec()).collect(),
        };
        if let Some((col, desc)) = &s.order_by {
            rows = t.order_by(rows, col, *desc)?;
        }
        if let Some(limit) = s.limit {
            rows.truncate(limit);
        }
        match &s.projection {
            Projection::All => Ok(ExecResult::Rows {
                columns: t
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect(),
                rows,
            }),
            Projection::Columns(cols) => {
                let names: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
                let projected = t.project(&rows, &names)?;
                Ok(ExecResult::Rows {
                    columns: cols.clone(),
                    rows: projected,
                })
            }
            Projection::Aggregate(_) => unreachable!("handled above"),
        }
    })?
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        execute(
            &db,
            "CREATE TABLE stocks (sym TEXT, day INT, price FLOAT NULL)",
        )
        .unwrap();
        execute(
            &db,
            "INSERT INTO stocks VALUES \
             ('goog', 1, 100.0), ('goog', 2, 104.0), ('goog', 3, 101.5), \
             ('msft', 1, 50.0), ('msft', 2, NULL)",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = db();
        let res = execute(
            &db,
            "SELECT day, price FROM stocks WHERE sym = 'goog' AND price > 100 ORDER BY price DESC",
        )
        .unwrap();
        let ExecResult::Rows { columns, rows } = res else {
            panic!()
        };
        assert_eq!(columns, vec!["day", "price"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Float(104.0));
        assert_eq!(rows[1][1], Value::Float(101.5));
    }

    #[test]
    fn select_star_with_limit() {
        let db = db();
        let res = execute(&db, "SELECT * FROM stocks ORDER BY day ASC LIMIT 2").unwrap();
        assert_eq!(res.rows().len(), 2);
    }

    #[test]
    fn aggregates_work() {
        let db = db();
        let res = execute(&db, "SELECT COUNT(*) FROM stocks").unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(5)));
        let res = execute(&db, "SELECT COUNT(price) FROM stocks").unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(4)));
        let res = execute(&db, "SELECT AVG(price) FROM stocks WHERE sym = 'goog'").unwrap();
        let avg = res.scalar().unwrap().as_f64().unwrap();
        assert!((avg - (100.0 + 104.0 + 101.5) / 3.0).abs() < 1e-9);
        let res = execute(&db, "SELECT MAX(price) FROM stocks").unwrap();
        assert_eq!(res.scalar(), Some(&Value::Float(104.0)));
    }

    #[test]
    fn delete_with_predicate() {
        let db = db();
        let res = execute(&db, "DELETE FROM stocks WHERE sym = 'msft'").unwrap();
        assert_eq!(res, ExecResult::Affected(2));
        let res = execute(&db, "SELECT COUNT(*) FROM stocks").unwrap();
        assert_eq!(res.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn arithmetic_in_where() {
        let db = db();
        let res = execute(&db, "SELECT day FROM stocks WHERE price - 100 >= 1.5").unwrap();
        assert_eq!(res.rows().len(), 2); // 104.0 and 101.5
    }

    #[test]
    fn null_semantics_in_where() {
        let db = db();
        // NULL price never matches a comparison.
        let res = execute(&db, "SELECT * FROM stocks WHERE price > 0").unwrap();
        assert_eq!(res.rows().len(), 4);
        let res = execute(&db, "SELECT * FROM stocks WHERE NOT price > 0").unwrap();
        assert_eq!(res.rows().len(), 0);
    }

    #[test]
    fn ddl_round_trip() {
        let db = db();
        execute(&db, "CREATE TABLE tmp (x INT)").unwrap();
        assert!(db.has_table("tmp"));
        execute(&db, "DROP TABLE tmp").unwrap();
        assert!(!db.has_table("tmp"));
        assert!(execute(&db, "DROP TABLE tmp").is_err());
    }

    #[test]
    fn schema_violations_surface() {
        let db = db();
        assert!(execute(&db, "INSERT INTO stocks VALUES (1, 2, 3.0)").is_err());
        assert!(execute(&db, "INSERT INTO stocks VALUES ('x', NULL, 3.0)").is_err());
        assert!(execute(&db, "SELECT nope FROM stocks").is_err());
        assert!(execute(&db, "SELECT * FROM missing").is_err());
    }

    #[test]
    fn unary_minus_literal() {
        let db = db();
        execute(&db, "CREATE TABLE neg (x FLOAT)").unwrap();
        execute(&db, "INSERT INTO neg VALUES (-2.5), (1.0)").unwrap();
        let res = execute(&db, "SELECT x FROM neg WHERE x < -1").unwrap();
        assert_eq!(res.rows().len(), 1);
    }
}
