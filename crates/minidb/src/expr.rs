//! A small expression tree for filters and computed columns.
//!
//! The `WHERE` clause of both the programmatic query API and the SQL
//! front end ([`crate::sql::syntax`]): column references, literals,
//! comparisons, boolean connectives, and arithmetic.

use crate::schema::Schema;
use crate::value::Value;
use std::cmp::Ordering;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators (numeric only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// An expression over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
}

/// Expression evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprError {
    /// Unknown column name.
    UnknownColumn(String),
    /// Operator applied to incompatible types.
    TypeError(String),
}

impl std::fmt::Display for ExprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExprError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            ExprError::TypeError(m) => write!(f, "type error: {m}"),
        }
    }
}

impl std::error::Error for ExprError {}

/// Column reference helper.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// Literal helper.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Lit(v.into())
}

impl Expr {
    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Eq, Box::new(other))
    }

    /// `self <> other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ne, Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Lt, Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Le, Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Gt, Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Ge, Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)] // DSL builder, deliberately by-value
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Add, Box::new(other))
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)] // DSL builder, deliberately by-value
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Sub, Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)] // DSL builder, deliberately by-value
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Mul, Box::new(other))
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)] // DSL builder, deliberately by-value
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(Box::new(self), ArithOp::Div, Box::new(other))
    }

    /// Evaluate against a row.
    pub fn eval(&self, schema: &Schema, row: &[Value]) -> Result<Value, ExprError> {
        match self {
            Expr::Col(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| ExprError::UnknownColumn(name.clone()))?;
                Ok(row[idx].clone())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(a, op, b) => {
                let va = a.eval(schema, row)?;
                let vb = b.eval(schema, row)?;
                // SQL three-valued logic: comparisons with NULL are NULL.
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                let ord = va.cmp_sql(&vb);
                let res = match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                };
                Ok(Value::Bool(res))
            }
            Expr::And(a, b) => {
                let va = a.eval(schema, row)?;
                let vb = b.eval(schema, row)?;
                Ok(bool3_and(va, vb))
            }
            Expr::Or(a, b) => {
                let va = a.eval(schema, row)?;
                let vb = b.eval(schema, row)?;
                // A OR B = NOT(NOT A AND NOT B).
                Ok(bool3_not(bool3_and(bool3_not(va), bool3_not(vb))))
            }
            Expr::Not(a) => Ok(bool3_not(a.eval(schema, row)?)),
            Expr::Arith(a, op, b) => {
                let va = a.eval(schema, row)?;
                let vb = b.eval(schema, row)?;
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                match (va.as_i64(), vb.as_i64()) {
                    (Some(x), Some(y)) if *op != ArithOp::Div => Ok(Value::Int(match op {
                        ArithOp::Add => x.wrapping_add(y),
                        ArithOp::Sub => x.wrapping_sub(y),
                        ArithOp::Mul => x.wrapping_mul(y),
                        ArithOp::Div => unreachable!(),
                    })),
                    _ => {
                        let x = va.as_f64().ok_or_else(|| {
                            ExprError::TypeError("arithmetic needs numeric operands".into())
                        })?;
                        let y = vb.as_f64().ok_or_else(|| {
                            ExprError::TypeError("arithmetic needs numeric operands".into())
                        })?;
                        Ok(Value::Float(match op {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => x / y,
                        }))
                    }
                }
            }
        }
    }

    /// Evaluate as a filter predicate: NULL counts as false (SQL `WHERE`).
    pub fn matches(&self, schema: &Schema, row: &[Value]) -> Result<bool, ExprError> {
        match self.eval(schema, row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(ExprError::TypeError(format!(
                "filter must be boolean, got {other}"
            ))),
        }
    }
}

fn bool3_and(a: Value, b: Value) -> Value {
    use Value::*;
    match (a, b) {
        (Bool(false), _) | (_, Bool(false)) => Bool(false),
        (Bool(true), Bool(true)) => Bool(true),
        _ => Null,
    }
}

fn bool3_not(a: Value) -> Value {
    match a {
        Value::Bool(b) => Value::Bool(!b),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::DataType::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", Int),
            ColumnDef::new("price", Float).nullable(),
            ColumnDef::new("name", Text),
        ])
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![Value::Int(7), Value::Float(12.5), "abc".into()]
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row();
        assert_eq!(
            col("id").ge(lit(7i64)).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            col("price").lt(lit(10.0)).eval(&s, &r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            col("name").eq(lit("abc")).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        // Cross-type numeric comparison.
        assert_eq!(
            col("id").lt(lit(7.5)).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn null_three_valued_logic() {
        let s = schema();
        let r = vec![Value::Int(1), Value::Null, "x".into()];
        // NULL comparison → NULL → filter false.
        let e = col("price").gt(lit(0.0));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Null);
        assert!(!e.matches(&s, &r).unwrap());
        // false AND NULL = false; true AND NULL = NULL.
        let f = lit(false).and(col("price").gt(lit(0.0)));
        assert_eq!(f.eval(&s, &r).unwrap(), Value::Bool(false));
        let t = lit(true).and(col("price").gt(lit(0.0)));
        assert_eq!(t.eval(&s, &r).unwrap(), Value::Null);
        // true OR NULL = true.
        let o = lit(true).or(col("price").gt(lit(0.0)));
        assert_eq!(o.eval(&s, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic() {
        let s = schema();
        let r = row();
        assert_eq!(
            col("id").add(lit(3i64)).eval(&s, &r).unwrap(),
            Value::Int(10)
        );
        assert_eq!(
            col("price").mul(lit(2.0)).eval(&s, &r).unwrap(),
            Value::Float(25.0)
        );
        // Integer division promotes to float.
        assert_eq!(
            col("id").div(lit(2i64)).eval(&s, &r).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn errors() {
        let s = schema();
        let r = row();
        assert!(matches!(
            col("missing").eval(&s, &r),
            Err(ExprError::UnknownColumn(_))
        ));
        assert!(matches!(
            col("name").add(lit(1i64)).eval(&s, &r),
            Err(ExprError::TypeError(_))
        ));
        assert!(matches!(
            col("id").matches(&s, &r),
            Err(ExprError::TypeError(_))
        ));
    }
}
