#![warn(missing_docs)]
//! NonStop SQL's front end: parser, catalog, compiler (planner), Executor.
//!
//! A cluster plans each statement text through its [`StatementCache`]:
//! one template per statement shape, planned against the live catalog.
//!
//! The division of labour reproduces the paper's: this crate produces
//! *plans of single-variable queries* and executes them through the File
//! System (`nsql-fs`), which decomposes them into messages to the Disk
//! Processes (`nsql-dp`) — where selection, projection, update expressions
//! and integrity constraints are evaluated, at the data source.

pub mod ast;
pub mod bind;
pub mod cache;
pub mod catalog;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod sort;
pub mod sys;

pub use cache::StatementCache;
pub use catalog::{Catalog, CatalogError, TableInfo};
pub use exec::{ExecError, Executor, OpStats, QueryResult};
pub use parser::{parse, ParseError};
pub use plan::{plan, Plan, PlanError, SelectPlan};
pub use sys::{SysSnapshot, SysTable};

#[cfg(test)]
mod tests;
