//! The OCS database service (paper §3.3): "provides access to persistent
//! data via exported IDL interfaces".
//!
//! In the deployed system the database held slow-changing configuration —
//! notably the Cluster Service Controller's static service-placement
//! table (§6.2) and the application catalog. This crate provides:
//!
//! * a [`Storage`] abstraction with two backends: [`MemStorage`], whose
//!   contents live outside any simulated process and therefore survive
//!   node crashes (modelling the machine's disk), and [`FileStorage`],
//!   a snapshot-plus-append-log store for the real runtime;
//! * the [`Db`] service exporting the table interface over the ORB;
//! * typed helpers for the cluster's well-known tables
//!   ([`ServicePlacement`], [`AppEntry`]).

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use ocs_orb::{declare_interface, impl_rpc_fault, Caller, OrbError};
use ocs_sim::NodeId;
use ocs_wire::{impl_wire_enum, impl_wire_struct, Wire};
use parking_lot::Mutex;

/// Errors from the database service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// The key does not exist.
    NotFound { table: String, key: String },
    /// The backing store failed (I/O error on the real runtime).
    Storage { what: String },
    /// Transport failure.
    Comm { err: OrbError },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NotFound { table, key } => write!(f, "not found: {table}/{key}"),
            DbError::Storage { what } => write!(f, "storage error: {what}"),
            DbError::Comm { err } => write!(f, "communication failure: {err}"),
        }
    }
}

impl std::error::Error for DbError {}

impl_wire_enum!(DbError {
    0 => NotFound { table, key },
    1 => Storage { what },
    2 => Comm { err },
});
impl_rpc_fault!(DbError);

declare_interface! {
    /// Table-oriented persistent storage.
    pub interface DbApi [DbApiClient, DbApiServant]: "ocs.db" {
        /// Read one value.
        1 => fn get(&self, table: String, key: String) -> Result<Bytes, DbError>;
        /// Write one value (creating the table as needed).
        2 => fn put(&self, table: String, key: String, value: Bytes) -> Result<(), DbError>;
        /// Delete one value; succeeds even if absent.
        3 => fn delete(&self, table: String, key: String) -> Result<(), DbError>;
        /// All `(key, value)` pairs of a table, in key order.
        4 => fn scan(&self, table: String) -> Result<Vec<(String, Bytes)>, DbError>;
    }
}

/// A persistence backend for the database service.
pub trait Storage: Send + Sync {
    /// Reads a value.
    fn get(&self, table: &str, key: &str) -> Option<Bytes>;
    /// Writes a value durably.
    fn put(&self, table: &str, key: &str, value: Bytes) -> Result<(), String>;
    /// Deletes a value durably.
    fn delete(&self, table: &str, key: &str) -> Result<(), String>;
    /// All pairs of a table in key order.
    fn scan(&self, table: &str) -> Vec<(String, Bytes)>;
}

type Tables = BTreeMap<String, BTreeMap<String, Bytes>>;

/// In-memory storage held *outside* simulated processes: like a disk, it
/// survives node crashes and restarts in simulation.
#[derive(Default)]
pub struct MemStorage {
    tables: Mutex<Tables>,
}

impl MemStorage {
    /// Creates empty storage.
    pub fn new() -> Arc<MemStorage> {
        Arc::new(MemStorage::default())
    }
}

impl Storage for MemStorage {
    fn get(&self, table: &str, key: &str) -> Option<Bytes> {
        self.tables.lock().get(table)?.get(key).cloned()
    }

    fn put(&self, table: &str, key: &str, value: Bytes) -> Result<(), String> {
        self.tables
            .lock()
            .entry(table.to_string())
            .or_default()
            .insert(key.to_string(), value);
        Ok(())
    }

    fn delete(&self, table: &str, key: &str) -> Result<(), String> {
        if let Some(t) = self.tables.lock().get_mut(table) {
            t.remove(key);
        }
        Ok(())
    }

    fn scan(&self, table: &str) -> Vec<(String, Bytes)> {
        self.tables
            .lock()
            .get(table)
            .map(|t| t.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }
}

/// One record of the append log.
#[derive(Clone, Debug, PartialEq)]
enum LogRec {
    Put {
        table: String,
        key: String,
        value: Bytes,
    },
    Delete {
        table: String,
        key: String,
    },
}

impl_wire_enum!(LogRec {
    0 => Put { table, key, value },
    1 => Delete { table, key },
});

/// File-backed storage for the real runtime: a wire-encoded snapshot plus
/// an append log, replayed at open and compacted when the log grows past
/// a threshold.
pub struct FileStorage {
    dir: PathBuf,
    tables: Mutex<Tables>,
    log_records: Mutex<u64>,
}

impl FileStorage {
    /// Opens (or creates) storage rooted at `dir`, replaying any
    /// existing snapshot and log.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Arc<FileStorage>, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut tables: Tables = BTreeMap::new();
        let snap_path = dir.join("snapshot.db");
        if let Ok(buf) = std::fs::read(&snap_path) {
            let decoded: Vec<(String, Vec<(String, Bytes)>)> =
                Wire::from_bytes(&buf).map_err(|e| e.to_string())?;
            for (table, pairs) in decoded {
                tables.insert(table, pairs.into_iter().collect());
            }
        }
        let mut log_records = 0;
        let log_path = dir.join("log.db");
        if let Ok(buf) = std::fs::read(&log_path) {
            let mut d = ocs_wire::Decoder::new(&buf);
            while d.remaining() > 0 {
                let Ok(rec) = LogRec::decode_from(&mut d) else {
                    break; // Torn tail record from a crash: ignore.
                };
                log_records += 1;
                match rec {
                    LogRec::Put { table, key, value } => {
                        tables.entry(table).or_default().insert(key, value);
                    }
                    LogRec::Delete { table, key } => {
                        if let Some(t) = tables.get_mut(&table) {
                            t.remove(&key);
                        }
                    }
                }
            }
        }
        Ok(Arc::new(FileStorage {
            dir,
            tables: Mutex::new(tables),
            log_records: Mutex::new(log_records),
        }))
    }

    fn append(&self, rec: &LogRec) -> Result<(), String> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join("log.db"))
            .map_err(|e| e.to_string())?;
        f.write_all(&rec.to_bytes()).map_err(|e| e.to_string())?;
        f.sync_data().map_err(|e| e.to_string())?;
        let mut n = self.log_records.lock();
        *n += 1;
        if *n >= 1024 {
            drop(n);
            self.compact()?;
        }
        Ok(())
    }

    fn compact(&self) -> Result<(), String> {
        let tables = self.tables.lock();
        let flat: Vec<(String, Vec<(String, Bytes)>)> = tables
            .iter()
            .map(|(t, m)| {
                (
                    t.clone(),
                    m.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
                )
            })
            .collect();
        let tmp = self.dir.join("snapshot.tmp");
        std::fs::write(&tmp, flat.to_bytes()).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, self.dir.join("snapshot.db")).map_err(|e| e.to_string())?;
        std::fs::write(self.dir.join("log.db"), b"").map_err(|e| e.to_string())?;
        *self.log_records.lock() = 0;
        Ok(())
    }
}

impl Storage for FileStorage {
    fn get(&self, table: &str, key: &str) -> Option<Bytes> {
        self.tables.lock().get(table)?.get(key).cloned()
    }

    fn put(&self, table: &str, key: &str, value: Bytes) -> Result<(), String> {
        // Update memory first so a concurrent compaction (triggered by
        // this append) persists the new value too.
        self.tables
            .lock()
            .entry(table.to_string())
            .or_default()
            .insert(key.to_string(), value.clone());
        self.append(&LogRec::Put {
            table: table.to_string(),
            key: key.to_string(),
            value,
        })
    }

    fn delete(&self, table: &str, key: &str) -> Result<(), String> {
        if let Some(t) = self.tables.lock().get_mut(table) {
            t.remove(key);
        }
        self.append(&LogRec::Delete {
            table: table.to_string(),
            key: key.to_string(),
        })
    }

    fn scan(&self, table: &str) -> Vec<(String, Bytes)> {
        self.tables
            .lock()
            .get(table)
            .map(|t| t.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }
}

/// The database service: a thin ORB face over a [`Storage`] backend.
pub struct Db {
    storage: Arc<dyn Storage>,
}

impl Db {
    /// Creates the service over a backend.
    pub fn new(storage: Arc<dyn Storage>) -> Arc<Db> {
        Arc::new(Db { storage })
    }
}

impl DbApi for Db {
    fn get(&self, _caller: &Caller, table: String, key: String) -> Result<Bytes, DbError> {
        self.storage
            .get(&table, &key)
            .ok_or(DbError::NotFound { table, key })
    }

    fn put(
        &self,
        _caller: &Caller,
        table: String,
        key: String,
        value: Bytes,
    ) -> Result<(), DbError> {
        self.storage
            .put(&table, &key, value)
            .map_err(|what| DbError::Storage { what })
    }

    fn delete(&self, _caller: &Caller, table: String, key: String) -> Result<(), DbError> {
        self.storage
            .delete(&table, &key)
            .map_err(|what| DbError::Storage { what })
    }

    fn scan(&self, _caller: &Caller, table: String) -> Result<Vec<(String, Bytes)>, DbError> {
        Ok(self.storage.scan(&table))
    }
}

// ---- well-known name and cluster tables ---------------------------------

/// Name the database service is bound at.
pub const DB_PATH: &str = "svc/db";

/// Table holding the CSC's static service-placement configuration (§6.2).
pub const TABLE_SERVICES: &str = "services";
/// Table holding the application catalog (navigator contents).
pub const TABLE_APPS: &str = "apps";

/// Where the CSC should run one service (one row per service name).
#[derive(Clone, Debug, PartialEq)]
pub struct ServicePlacement {
    /// Service name (e.g. `"mms"`).
    pub service: String,
    /// Nodes that should run an instance.
    pub nodes: Vec<NodeId>,
}

impl_wire_struct!(ServicePlacement { service, nodes });

/// One downloadable application in the catalog.
#[derive(Clone, Debug, PartialEq)]
pub struct AppEntry {
    /// Application name (the RDS object name).
    pub name: String,
    /// Channel number that launches it.
    pub channel: u32,
    /// Executable size in bytes (drives download-time modelling).
    pub size: u64,
}

impl_wire_struct!(AppEntry {
    name,
    channel,
    size
});

/// Typed accessors over a [`DbApiClient`].
pub struct DbTables;

impl DbTables {
    /// Writes one service placement row.
    pub fn put_placement(db: &DbApiClient, p: &ServicePlacement) -> Result<(), DbError> {
        db.put(TABLE_SERVICES.to_string(), p.service.clone(), p.to_bytes())
    }

    /// Reads all placements.
    pub fn placements(db: &DbApiClient) -> Result<Vec<ServicePlacement>, DbError> {
        let rows = db.scan(TABLE_SERVICES.to_string())?;
        rows.into_iter()
            .map(|(_, v)| {
                ServicePlacement::from_bytes(&v).map_err(|e| DbError::Storage {
                    what: e.to_string(),
                })
            })
            .collect()
    }

    /// Reads the application catalog.
    pub fn apps(db: &DbApiClient) -> Result<Vec<AppEntry>, DbError> {
        let rows = db.scan(TABLE_APPS.to_string())?;
        rows.into_iter()
            .map(|(_, v)| {
                AppEntry::from_bytes(&v).map_err(|e| DbError::Storage {
                    what: e.to_string(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_basics() {
        let s = MemStorage::new();
        assert!(s.get("t", "k").is_none());
        s.put("t", "k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(s.get("t", "k").unwrap(), Bytes::from_static(b"v"));
        s.put("t", "a", Bytes::from_static(b"1")).unwrap();
        let scan = s.scan("t");
        assert_eq!(scan.len(), 2);
        assert_eq!(scan[0].0, "a"); // Key order.
        s.delete("t", "k").unwrap();
        assert!(s.get("t", "k").is_none());
        assert!(s.scan("missing").is_empty());
    }

    #[test]
    fn file_storage_replays_log() {
        let dir = std::env::temp_dir().join(format!("ocsdb-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = FileStorage::open(&dir).unwrap();
            s.put("cfg", "a", Bytes::from_static(b"1")).unwrap();
            s.put("cfg", "b", Bytes::from_static(b"2")).unwrap();
            s.delete("cfg", "a").unwrap();
        }
        {
            let s = FileStorage::open(&dir).unwrap();
            assert!(s.get("cfg", "a").is_none());
            assert_eq!(s.get("cfg", "b").unwrap(), Bytes::from_static(b"2"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_storage_compacts() {
        let dir = std::env::temp_dir().join(format!("ocsdb-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = FileStorage::open(&dir).unwrap();
            for i in 0..1100 {
                s.put("t", &format!("k{i}"), Bytes::from_static(b"x"))
                    .unwrap();
            }
            assert!(*s.log_records.lock() < 1024, "log should have compacted");
        }
        {
            let s = FileStorage::open(&dir).unwrap();
            assert_eq!(s.scan("t").len(), 1100);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn placement_rows_round_trip() {
        let p = ServicePlacement {
            service: "mms".into(),
            nodes: vec![NodeId(1), NodeId(2)],
        };
        assert_eq!(ServicePlacement::from_bytes(&p.to_bytes()).unwrap(), p);
        let a = AppEntry {
            name: "vod".into(),
            channel: 40,
            size: 2_000_000,
        };
        assert_eq!(AppEntry::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn db_service_over_storage() {
        let db = Db::new(MemStorage::new());
        let caller = Caller::local(NodeId(1));
        db.put(&caller, "t".into(), "k".into(), Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(
            db.get(&caller, "t".into(), "k".into()).unwrap(),
            Bytes::from_static(b"v")
        );
        assert!(matches!(
            db.get(&caller, "t".into(), "missing".into()),
            Err(DbError::NotFound { .. })
        ));
        db.delete(&caller, "t".into(), "k".into()).unwrap();
        assert!(db.scan(&caller, "t".into()).unwrap().is_empty());
    }
}
