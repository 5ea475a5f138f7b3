#![warn(missing_docs)]
//! Records, fields, keys, and single-variable queries.
//!
//! This crate is the vocabulary shared by the SQL Executor, the File System
//! and the Disk Process. The paper's central move is shipping *field-level*
//! operations — selection predicates, projections, update expressions,
//! integrity constraints — down to the Disk Process. Everything needed to
//! express such an operation lives here:
//!
//! * [`Value`] / [`FieldType`] — the SQL type system (1988 vintage: small
//!   integers through doubles and fixed/variable character strings).
//! * [`RecordDescriptor`] — the record layout, enabling field extraction
//!   directly from encoded record bytes (no full materialisation).
//! * [`key`] — order-preserving key encoding and key ranges, the currency of
//!   the set-oriented FS-DP interface and of the continuation re-drive
//!   protocol.
//! * [`Expr`] — bound expressions ("single-variable queries") with SQL
//!   three-valued logic; [`Predicate`] is the form the Disk Process compiles
//!   one to, to decide it on the bytes of the records it holds.
//! * [`SetList`] — update expressions (`SET BALANCE = BALANCE * 1.07`)
//!   applied at the data source; [`Patch`] is the form the Disk Process
//!   compiles one to, to change a record on its bytes.
//! * [`fold`] — `GROUP BY` and the aggregate functions, one fold for the
//!   executor and for the Disk Process, which replies with partial groups.

pub mod expr;
pub mod fold;
pub mod key;
pub mod patch;
pub mod predicate;
pub mod row;
pub mod types;
pub mod value;

pub use expr::{ArithOp, CmpOp, EvalError, Expr, SetList};
pub use fold::{AggFunc, Aggregation};
pub use key::{KeyRange, OwnedBound};
pub use patch::{FieldChanges, Patch, PatchError};
pub use predicate::{Kernel, Predicate, PredicateError};
pub use row::{FieldRef, Projection, RawRecord, Row, RowAccessor, SliceRow};
pub use types::{FieldDef, FieldType, RecordDescriptor};
pub use value::Value;
