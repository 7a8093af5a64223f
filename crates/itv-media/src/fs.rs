//! The File Service (§3.3, §4.6): "provides settops access to UNIX
//! files" and "implements a subclass of the NamingContext interface
//! called a FileSystemContext ... The file system exports its objects by
//! binding FileSystemContext objects into the cluster-wide name space."
//!
//! This is the system's exercise of the §4.3 *remote context* path: the
//! file service's root directory object carries the naming type id, so
//! the name service forwards multi-component resolves (`fs/media/t2`)
//! into it.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use bytes::Bytes;
use ocs_name::{Binding, NamingContext, NamingContextServant, NsError, SelectorSpec};
use ocs_orb::{declare_interface, Caller, ObjRef, Orb};
use ocs_sim::{NetError, PortReq, Rt};
use parking_lot::Mutex;

use crate::types::MediaError;

declare_interface! {
    /// Per-file object interface.
    pub interface FileApi [FileApiClient, FileApiServant]: "itv.file" {
        /// Read up to `len` bytes at `offset`.
        1 => fn read(&self, offset: u64, len: u32) -> Result<Bytes, MediaError>;
        /// Write at `offset`, extending the file as needed.
        2 => fn write(&self, offset: u64, data: Bytes) -> Result<(), MediaError>;
        /// Current size in bytes.
        3 => fn size(&self) -> Result<u64, MediaError>;
    }
}

declare_interface! {
    /// The FileSystemContext's "additional operations for file creation"
    /// (§4.6), exported alongside the naming interface.
    pub interface FileSvcApi [FileSvcClient, FileSvcServant]: "itv.fsvc" {
        /// Create an empty file at a slash-separated path.
        1 => fn create(&self, path: String) -> Result<ObjRef, MediaError>;
        /// Create a directory at a slash-separated path.
        2 => fn mkdir(&self, path: String) -> Result<(), MediaError>;
        /// Remove a file or (empty) directory.
        3 => fn remove(&self, path: String) -> Result<(), MediaError>;
    }
}

enum Node {
    Dir(BTreeMap<String, Node>),
    File(Arc<Mutex<Vec<u8>>>),
}

/// The in-memory file system substrate.
pub struct MemFs {
    root: Mutex<BTreeMap<String, Node>>,
}

impl MemFs {
    fn new() -> MemFs {
        MemFs {
            root: Mutex::new(BTreeMap::new()),
        }
    }

    fn with_dir<R>(
        &self,
        path: &[&str],
        f: impl FnOnce(&mut BTreeMap<String, Node>) -> Result<R, MediaError>,
    ) -> Result<R, MediaError> {
        let mut root = self.root.lock();
        let mut dir = &mut *root;
        for part in path {
            match dir.get_mut(*part) {
                Some(Node::Dir(d)) => dir = d,
                _ => {
                    return Err(MediaError::NotFound {
                        title: (*part).to_string(),
                    })
                }
            }
        }
        f(dir)
    }
}

fn split(path: &str) -> Result<Vec<&str>, MediaError> {
    let p = path.trim_matches('/');
    if p.is_empty() {
        return Err(MediaError::NotFound {
            title: path.to_string(),
        });
    }
    Ok(p.split('/').collect())
}

/// The File Service: an in-memory file system exported as naming contexts plus file
/// objects and the creation interface.
pub struct FileSvc {
    fs: MemFs,
    orb: Mutex<Weak<Orb>>,
    /// Directory path (joined) → exported context object id.
    dir_objects: Mutex<BTreeMap<String, u64>>,
    /// File path (joined) → exported file object id.
    file_objects: Mutex<BTreeMap<String, u64>>,
}

impl FileSvc {
    /// Starts the file service on `port`. Returns the instance, the root
    /// FileSystemContext reference (bind it into the cluster name space,
    /// e.g. at `fs`) and the creation-interface reference (bind at
    /// `svc/file`).
    pub fn serve(rt: Rt, port: u16) -> Result<(Arc<FileSvc>, ObjRef, ObjRef), NetError> {
        let svc = Arc::new(FileSvc {
            fs: MemFs::new(),
            orb: Mutex::new(Weak::new()),
            dir_objects: Mutex::new(BTreeMap::new()),
            file_objects: Mutex::new(BTreeMap::new()),
        });
        let orb = Orb::new(rt, PortReq::Fixed(port))?;
        *svc.orb.lock() = Arc::downgrade(&orb);
        // Root context at object id 0, with the *naming* type so the
        // name service forwards into it.
        let root_ref = orb.export_root(Arc::new(NamingContextServant(Arc::new(FsCtx {
            svc: Arc::clone(&svc),
            dir: String::new(),
        }))));
        let create_ref = orb.export(Arc::new(FileSvcServant(Arc::clone(&svc))));
        orb.start();
        Ok((svc, root_ref, create_ref))
    }

    fn orb(&self) -> Result<Arc<Orb>, MediaError> {
        self.orb.lock().upgrade().ok_or(MediaError::Dependency {
            what: "orb gone".to_string(),
        })
    }

    /// Object reference for a directory, exporting its context lazily.
    fn dir_ref(self: &Arc<Self>, path: &str) -> Result<ObjRef, MediaError> {
        let orb = self.orb()?;
        let mut dirs = self.dir_objects.lock();
        if let Some(id) = dirs.get(path) {
            return Ok(ObjRef {
                addr: orb.addr(),
                incarnation: orb.incarnation(),
                type_id: ocs_name::NAMING_TYPE_ID,
                object_id: *id,
            });
        }
        let obj = orb.export(Arc::new(NamingContextServant(Arc::new(FsCtx {
            svc: Arc::clone(self),
            dir: path.to_string(),
        }))));
        dirs.insert(path.to_string(), obj.object_id);
        Ok(obj)
    }

    /// Object reference for a file, exporting its object lazily.
    fn file_ref(&self, path: &str, contents: Arc<Mutex<Vec<u8>>>) -> Result<ObjRef, MediaError> {
        let orb = self.orb()?;
        let mut files = self.file_objects.lock();
        if let Some(id) = files.get(path) {
            return Ok(ObjRef {
                addr: orb.addr(),
                incarnation: orb.incarnation(),
                type_id: ocs_wire::type_id_of("itv.file"),
                object_id: *id,
            });
        }
        let obj = orb.export(Arc::new(FileApiServant(Arc::new(FileObj { contents }))));
        files.insert(path.to_string(), obj.object_id);
        Ok(obj)
    }
}

/// One exported file object.
struct FileObj {
    contents: Arc<Mutex<Vec<u8>>>,
}

impl FileApi for FileObj {
    fn read(&self, _c: &Caller, offset: u64, len: u32) -> Result<Bytes, MediaError> {
        let contents = self.contents.lock();
        let start = (offset as usize).min(contents.len());
        let end = (start + len as usize).min(contents.len());
        Ok(Bytes::copy_from_slice(&contents[start..end]))
    }

    fn write(&self, _c: &Caller, offset: u64, data: Bytes) -> Result<(), MediaError> {
        let mut contents = self.contents.lock();
        let end = offset as usize + data.len();
        if contents.len() < end {
            contents.resize(end, 0);
        }
        contents[offset as usize..end].copy_from_slice(&data);
        Ok(())
    }

    fn size(&self, _c: &Caller) -> Result<u64, MediaError> {
        Ok(self.contents.lock().len() as u64)
    }
}

/// One directory exported as a naming context (the FileSystemContext).
struct FsCtx {
    svc: Arc<FileSvc>,
    dir: String,
}

impl FsCtx {
    fn dir_parts(&self) -> Vec<&str> {
        if self.dir.is_empty() {
            Vec::new()
        } else {
            self.dir.split('/').collect()
        }
    }

    fn join(&self, rest: &str) -> String {
        if self.dir.is_empty() {
            rest.to_string()
        } else {
            format!("{}/{}", self.dir, rest)
        }
    }
}

impl NamingContext for FsCtx {
    fn resolve(&self, _caller: &Caller, name: String) -> Result<ObjRef, NsError> {
        let parts = split(&name).map_err(|_| NsError::BadName { name: name.clone() })?;
        // Walk from this directory.
        let mut walked = self.dir_parts().join("/");
        let mut remaining: Vec<&str> = parts;
        loop {
            let part = remaining[0];
            let here: Vec<&str> = if walked.is_empty() {
                Vec::new()
            } else {
                walked.split('/').collect()
            };
            let step = self.svc.fs.with_dir(&here, |dir| match dir.get(part) {
                Some(Node::Dir(_)) => Ok(None),
                Some(Node::File(c)) => Ok(Some(Arc::clone(c))),
                None => Err(MediaError::NotFound {
                    title: part.to_string(),
                }),
            });
            let path = if walked.is_empty() {
                part.to_string()
            } else {
                format!("{walked}/{part}")
            };
            match step {
                Ok(None) => {
                    // A directory: descend or return its context.
                    if remaining.len() == 1 {
                        return self.svc.dir_ref(&path).map_err(|e| NsError::NotFound {
                            name: e.to_string(),
                        });
                    }
                    walked = path;
                    remaining.remove(0);
                }
                Ok(Some(contents)) => {
                    if remaining.len() != 1 {
                        return Err(NsError::NotAContext {
                            name: part.to_string(),
                        });
                    }
                    return self
                        .svc
                        .file_ref(&path, contents)
                        .map_err(|e| NsError::NotFound {
                            name: e.to_string(),
                        });
                }
                Err(_) => return Err(NsError::NotFound { name }),
            }
        }
    }

    fn bind(&self, _c: &Caller, name: String, _obj: ObjRef) -> Result<(), NsError> {
        // Files are created through the FileSvcApi, not by binding.
        Err(NsError::BadName { name })
    }

    fn unbind(&self, _c: &Caller, name: String) -> Result<(), NsError> {
        Err(NsError::BadName { name })
    }

    fn bind_new_context(&self, _c: &Caller, name: String) -> Result<ObjRef, NsError> {
        Err(NsError::BadName { name })
    }

    fn bind_repl_context(
        &self,
        _c: &Caller,
        name: String,
        _sel: SelectorSpec,
    ) -> Result<ObjRef, NsError> {
        Err(NsError::BadName { name })
    }

    fn list(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        // List the named subdirectory ("." lists this directory).
        let target = if name == "." {
            self.dir.clone()
        } else {
            self.join(&name)
        };
        let parts: Vec<&str> = if target.is_empty() {
            Vec::new()
        } else {
            target.split('/').collect()
        };
        let names = self
            .svc
            .fs
            .with_dir(&parts, |dir| Ok(dir.keys().cloned().collect::<Vec<_>>()))
            .map_err(|_| NsError::NotFound { name: name.clone() })?;
        let mut out = Vec::new();
        for n in names {
            let obj = self.resolve(
                caller,
                if target.is_empty() {
                    n.clone()
                } else {
                    // Resolve relative to this context.
                    if name == "." {
                        n.clone()
                    } else {
                        format!("{name}/{n}")
                    }
                },
            )?;
            out.push(Binding {
                name: n,
                obj,
                load: 0,
            });
        }
        Ok(out)
    }

    fn list_repl(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        self.list(caller, name)
    }

    fn report_load(&self, _c: &Caller, name: String, _load: u32) -> Result<(), NsError> {
        Err(NsError::BadName { name })
    }
}

impl FileSvcApi for FileSvc {
    fn create(&self, _c: &Caller, path: String) -> Result<ObjRef, MediaError> {
        let parts = split(&path)?;
        let (dir_parts, file_name) = parts.split_at(parts.len() - 1);
        let contents = self.fs.with_dir(dir_parts, |dir| {
            if dir.contains_key(file_name[0]) {
                return Err(MediaError::Dependency {
                    what: format!("exists: {path}"),
                });
            }
            let contents = Arc::new(Mutex::new(Vec::new()));
            dir.insert(file_name[0].to_string(), Node::File(Arc::clone(&contents)));
            Ok(contents)
        })?;
        self.file_ref(parts.join("/").as_str(), contents)
    }

    fn mkdir(&self, _c: &Caller, path: String) -> Result<(), MediaError> {
        let parts = split(&path)?;
        let (dir_parts, name) = parts.split_at(parts.len() - 1);
        self.fs.with_dir(dir_parts, |dir| {
            if dir.contains_key(name[0]) {
                return Err(MediaError::Dependency {
                    what: format!("exists: {path}"),
                });
            }
            dir.insert(name[0].to_string(), Node::Dir(BTreeMap::new()));
            Ok(())
        })
    }

    fn remove(&self, _c: &Caller, path: String) -> Result<(), MediaError> {
        let parts = split(&path)?;
        let (dir_parts, name) = parts.split_at(parts.len() - 1);
        self.fs.with_dir(dir_parts, |dir| {
            match dir.get(name[0]) {
                Some(Node::Dir(d)) if !d.is_empty() => {
                    return Err(MediaError::Dependency {
                        what: format!("directory not empty: {path}"),
                    })
                }
                None => {
                    return Err(MediaError::NotFound {
                        title: path.clone(),
                    })
                }
                _ => {}
            }
            dir.remove(name[0]);
            Ok(())
        })
    }
}
