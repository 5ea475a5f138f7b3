//! The SQL catalog: tables, partitions, indices, constraints, statistics.
//!
//! DDL executes against the Disk Processes (a `CreateFile` per partition /
//! index), and the catalog keeps the [`OpenFile`] metadata the File System
//! routes with. Catalog contents live in memory, shared by all sessions of
//! a cluster; the on-volume file labels are the durable complement a real
//! system would reload from. A plan holds its tables' entries by reference
//! count ([`Catalog::entry`]): DDL replaces an entry, it never changes one
//! a plan holds.

use crate::ast::{CreateIndex, CreateTable};
use crate::bind::{bind_expr, BindError, Params, Scope};
use nsql_dp::{DpReply, DpRequest, FileKind};
use nsql_fs::{FileSystem, FsError, IndexInfo, OpenFile, Partition};
use nsql_lock::TxnId;
use nsql_records::key::encode_key_value;
use nsql_records::{Expr, FieldDef, KeyRange, OwnedBound, RecordDescriptor};
use nsql_sim::sync::RwLock;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// Duplicate table/index name.
    AlreadyExists(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// Underlying File System / Disk Process failure.
    Fs(String),
    /// Bad constraint or partition clause.
    Invalid(String),
}

impl From<FsError> for CatalogError {
    fn from(e: FsError) -> Self {
        CatalogError::Fs(e.to_string())
    }
}

impl From<BindError> for CatalogError {
    fn from(e: BindError) -> Self {
        CatalogError::Invalid(e.to_string())
    }
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::AlreadyExists(n) => write!(f, "{n} already exists"),
            CatalogError::NoSuchTable(n) => write!(f, "no such table {n}"),
            CatalogError::NoSuchColumn(n) => write!(f, "no such column {n}"),
            CatalogError::Fs(e) => write!(f, "{e}"),
            CatalogError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Everything known about one table.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// File System view (descriptor, partitions, indices).
    pub open: OpenFile,
    /// Bound CHECK constraints (field numbers over the table row).
    pub checks: Vec<Expr>,
}

/// One table in the catalog: the entry plans share, and beside it the
/// row-count statistic, so that DML moving the count never copies an entry
/// a running plan holds.
struct Table {
    info: Arc<TableInfo>,
    rows: u64,
}

/// The shared catalog of one cluster.
pub struct Catalog {
    tables: RwLock<HashMap<String, Table>>,
    /// Volume used when DDL names none.
    pub default_volume: String,
}

/// A table name as the catalog keys it: upper-cased. Names from the lexer
/// already are, so most lookups borrow the name as given.
fn key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(name.to_ascii_uppercase())
    } else {
        Cow::Borrowed(name)
    }
}

impl Catalog {
    /// An empty catalog defaulting to `default_volume`.
    pub fn new(default_volume: impl Into<String>) -> Arc<Catalog> {
        Arc::new(Catalog {
            tables: RwLock::new(HashMap::new()),
            default_volume: default_volume.into(),
        })
    }

    /// A table's shared entry, as plans hold it.
    pub fn entry(&self, name: &str) -> Result<Arc<TableInfo>, CatalogError> {
        self.tables
            .read()
            .get(&*key(name))
            .map(|t| Arc::clone(&t.info))
            .ok_or_else(|| CatalogError::NoSuchTable(name.to_string()))
    }

    /// Look up a table (a copy of its entry).
    pub fn table(&self, name: &str) -> Result<TableInfo, CatalogError> {
        self.entry(name).map(|info| TableInfo::clone(&info))
    }

    /// Adjust the row-count statistic after DML or a bulk load.
    pub fn bump_rows(&self, name: &str, delta: i64) {
        if let Some(t) = self.tables.write().get_mut(&*key(name)) {
            t.rows = t.rows.saturating_add_signed(delta);
        }
    }

    /// The approximate row-count statistic: maintained by DML and bulk
    /// loaders through [`Catalog::bump_rows`]; no planner decision reads it
    /// yet.
    pub fn row_count(&self, name: &str) -> Option<u64> {
        self.tables.read().get(&*key(name)).map(|t| t.rows)
    }

    /// Execute CREATE TABLE: builds the descriptor, creates one
    /// key-sequenced file per partition, binds CHECK constraints.
    pub fn create_table(&self, fs: &FileSystem, stmt: &CreateTable) -> Result<(), CatalogError> {
        let name = stmt.name.to_ascii_uppercase();
        if self.tables.read().contains_key(&name) {
            return Err(CatalogError::AlreadyExists(name));
        }
        // Descriptor: primary-key columns become NOT NULL implicitly.
        let mut fields = Vec::new();
        for c in &stmt.columns {
            let key_col = stmt
                .primary_key
                .iter()
                .any(|k| k.eq_ignore_ascii_case(&c.name));
            fields.push(FieldDef {
                name: c.name.to_ascii_uppercase(),
                ty: c.ty,
                nullable: !(c.not_null || key_col),
            });
        }
        let mut key_fields = Vec::new();
        for k in &stmt.primary_key {
            let i = fields
                .iter()
                .position(|f| f.name.eq_ignore_ascii_case(k))
                .ok_or_else(|| CatalogError::NoSuchColumn(k.clone()))?;
            key_fields.push(i as u16);
        }
        let desc = RecordDescriptor::new(fields, key_fields);

        // Partition layout.
        let (splits, volumes) = match &stmt.partition {
            None => (Vec::new(), vec![self.default_volume.clone()]),
            Some(p) => (p.splits.clone(), p.volumes.clone()),
        };
        let first_key_ty = desc.fields[desc.key_fields[0] as usize].ty;
        let mut split_keys = Vec::new();
        for s in &splits {
            let v = first_key_ty
                .coerce(s.clone())
                .ok_or_else(|| CatalogError::Invalid("split value type mismatch".into()))?;
            let mut k = Vec::new();
            encode_key_value(first_key_ty, &v, &mut k);
            split_keys.push(k);
        }
        let mut partitions = Vec::new();
        for (i, vol) in volumes.iter().enumerate() {
            let begin = if i == 0 {
                OwnedBound::Unbounded
            } else {
                OwnedBound::Included(split_keys[i - 1].clone())
            };
            let end = if i == volumes.len() - 1 {
                OwnedBound::Unbounded
            } else {
                OwnedBound::Excluded(split_keys[i].clone())
            };
            let file = create_file(fs, vol, FileKind::KeySequenced(desc.clone()))?;
            partitions.push(Partition {
                process: vol.clone(),
                file,
                range: KeyRange { begin, end },
            });
        }

        // Bind CHECK constraints against the table's own scope.
        let scope = Scope::single(&name, &desc);
        let checks = stmt
            .checks
            .iter()
            .map(|c| bind_expr(c, &scope, &Params::NONE))
            .collect::<Result<Vec<_>, _>>()?;

        let open = OpenFile {
            name: name.clone(),
            desc,
            partitions,
            indexes: Vec::new(),
        };
        let info = Arc::new(TableInfo { name, open, checks });
        self.tables
            .write()
            .insert(info.name.clone(), Table { info, rows: 0 });
        Ok(())
    }

    /// Execute CREATE INDEX: creates the index file and back-fills it from
    /// the base table inside the caller's transaction.
    pub fn create_index(
        &self,
        fs: &FileSystem,
        txn: TxnId,
        stmt: &CreateIndex,
    ) -> Result<(), CatalogError> {
        let tname = stmt.table.to_ascii_uppercase();
        let info = self.entry(&tname)?;
        if info
            .open
            .indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(&stmt.name))
        {
            return Err(CatalogError::AlreadyExists(stmt.name.clone()));
        }
        let mut base_fields = Vec::new();
        for c in &stmt.columns {
            let i = info
                .open
                .desc
                .field_named(c)
                .ok_or_else(|| CatalogError::NoSuchColumn(c.clone()))?;
            // Indexed columns are key fields of the index file.
            if info.open.desc.fields[i as usize].nullable {
                return Err(CatalogError::Invalid(format!(
                    "index column {c} must be NOT NULL"
                )));
            }
            base_fields.push(i);
        }
        let volume = stmt
            .volume
            .clone()
            .unwrap_or_else(|| info.open.partitions[0].process.clone());
        let idx = IndexInfo::build(
            stmt.name.to_ascii_uppercase(),
            volume.clone(),
            0,
            &info.open.desc,
            base_fields,
            stmt.unique,
        );
        let file = create_file(fs, &volume, FileKind::KeySequenced(idx.desc.clone()))?;
        let idx = IndexInfo { file, ..idx };

        // Back-fill from existing rows using the blocked-insert interface.
        let existing = fs.scan(
            Some(txn),
            &info.open,
            &KeyRange::all(),
            None,
            None,
            nsql_dp::SubsetMode::Vsbb,
            nsql_dp::ReadLock::Shared,
        )?;
        if !existing.rows.is_empty() {
            let index_only = OpenFile::single(
                format!("{}-fill", idx.name),
                idx.desc.clone(),
                idx.process.clone(),
                idx.file,
            );
            let refused = |e: FsError| match e {
                FsError::Dp(nsql_dp::DpError::DuplicateKey) => CatalogError::Invalid(format!(
                    "cannot create unique index {}: duplicate values exist",
                    idx.name
                )),
                e => e.into(),
            };
            let mut filler = nsql_fs::BlockedInserter::new(fs, &index_only, txn);
            for row in &existing.rows {
                let irow = idx.index_row(&info.open.desc, &row.0);
                filler.push(&irow).map_err(refused)?;
            }
            filler.flush().map_err(refused)?;
        }

        // Held here too, the entry would be copied by `make_mut`.
        drop(info);
        let mut tables = self.tables.write();
        let table = tables.get_mut(&tname).expect("checked above");
        Arc::make_mut(&mut table.info).open.indexes.push(idx);
        Ok(())
    }

    /// Drop a table from the catalog. (The on-volume files are abandoned —
    /// space reclamation is out of scope for this reproduction.)
    pub fn drop_table(&self, name: &str) -> Result<(), CatalogError> {
        self.tables
            .write()
            .remove(&*key(name))
            .map(|_| ())
            .ok_or_else(|| CatalogError::NoSuchTable(name.to_string()))
    }
}

fn create_file(fs: &FileSystem, volume: &str, kind: FileKind) -> Result<u32, CatalogError> {
    match fs.send(volume, DpRequest::CreateFile { kind }) {
        Ok(DpReply::FileCreated(id)) => Ok(id),
        Ok(other) => Err(CatalogError::Fs(format!("unexpected reply {other:?}"))),
        Err(e) => Err(e.into()),
    }
}
