//! The SQL front end for the embedded engine: one spanned lexer and one
//! recursive-descent parser ([`syntax`]) for `SELECT` (with `WHERE`,
//! `ORDER BY`, `LIMIT`, aggregates), `INSERT`, `CREATE TABLE`, `DELETE`,
//! `DROP TABLE`, and the declarative **ESTIMATE dialect**
//! (`ESTIMATE DURABILITY …`, `EXPLAIN ESTIMATE …`, `SHOW MODELS`,
//! `SHOW DIAGNOSTICS`), producing one [`Statement`]. Enough surface to
//! drive the §6.4 pipeline the way the paper drove PostgreSQL.
//!
//! Plain statements execute through [`execute`]; dialect statements need
//! an engine context (model registry, plan cache, scheduler, RNG) and run
//! through [`crate::session::Session::execute`].

pub mod exec;
pub mod syntax;

pub use exec::{execute, execute_statement, ExecResult};
pub use syntax::{is_dialect, parse, parse_dialect, parse_with, Projection, SelectStmt, Statement};
