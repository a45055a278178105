//! # mlss-db
//!
//! An embedded mini-DBMS hosting the full durability-query pipeline —
//! the reproduction of the paper's "Implementations inside DBMS" (§6.4),
//! where PostgreSQL stored model parameters in tables, ran MLSS as a
//! stored procedure, and materialized sample paths for inspection.
//!
//! * [`value`] / [`schema`] — typed cells and table schemas;
//! * [`expr`] — filter/computed-column expressions with SQL
//!   three-valued-logic semantics;
//! * [`table`] — row-store tables: scan, filter, project, order,
//!   aggregate, delete;
//! * [`engine`] — the thread-safe catalog;
//! * [`durability`] — WAL-backed session durability, the one persistence
//!   format: journaled plain SQL, results, plan-cache entries, shard
//!   deposits, and crash-recoverable ASYNC queries ([`Session::open`]
//!   replays the log);
//! * [`proc`] — the model registry with per-model parameter schemas, and
//!   the `materialize_paths` stored procedure (the one registered
//!   procedure: it has no dialect form);
//! * [`dispatch`] — the one compile-and-dispatch path every estimation
//!   statement flows through ([`dispatch::execute_spec`],
//!   [`dispatch::explain_spec`], [`dispatch::show_models`]);
//! * [`session`] — concurrent serving sessions: [`Session::execute`]
//!   runs any statement over a shared scheduler, plan cache, and shard
//!   store; `… ASYNC` statements are polled, waited on, or cancelled
//!   through [`Session::poll`] / [`Session::wait`] / [`Session::cancel`];
//! * [`sql`] — the SQL front end: one spanned lexer and parser for plain
//!   SQL (SELECT/INSERT/CREATE/DELETE/DROP) and the ESTIMATE dialect
//!   ([`sql::syntax`]), plus the plain-statement executor.

#![warn(missing_docs)]

pub mod dispatch;
pub mod durability;
pub mod engine;
pub mod expr;
pub mod proc;
pub mod schema;
pub mod session;
pub mod sql;
pub mod table;
pub mod value;

pub use dispatch::{
    arm_seed, execute_rank, execute_spec, explain_rank, explain_spec, show_models, standings_rows,
    RankOutcome, SpecOutcome,
};
pub use durability::{Durability, SessionWal, WalSessionConfig};
pub use engine::{Database, DbError};
pub use expr::{col, lit, Expr};
pub use proc::{seed_default_models, Method, ModelRegistry, ProcRegistry, StoredProcedure};
pub use schema::{ColumnDef, Schema};
pub use session::{DiagnosticsSource, Session, SessionConfig};
pub use sql::{execute, is_dialect, parse_dialect, ExecResult, Statement};
pub use table::{Aggregate, Table, TableError};
pub use value::{DataType, Value};
