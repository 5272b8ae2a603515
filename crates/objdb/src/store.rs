//! The in-memory object store: objects, extents, relationships, methods
//! and access support relations.
//!
//! This is the execution substrate the paper assumes: an ODMG-style
//! object base that maintains **class extents** (including subclass
//! members — the basis for Application 2's scope reduction), binary
//! **relationships** with inverse maintenance and cardinality
//! enforcement, registered Rust closures as **methods**, and
//! materialized **access support relations** over relationship paths
//! (Kemper–Moerkotte; Application 4).
//!
//! [`ObjectDb::edb`] exposes the whole store in the Datalog
//! representation of Step 1, so translated queries run directly against
//! it. That EDB is the maintained in-memory head: declared once, at
//! construction or recovery, then updated by each mutator's own delta, so
//! a write costs time in proportion to the write. Relationship
//! bookkeeping is answered from its hash indexes. A pin from
//! [`ObjectDb::edb_pinned`] stays unchanged: the first write after it
//! copies the EDB (`Arc::make_mut`).
//!
//! When a durable [`ShardedStore`] is attached (via [`ObjectDb::open`]
//! or [`ObjectDb::from_store`]), every mutation is mirrored into the
//! store before the in-memory state changes, so the WAL always leads the
//! materialized state and recovery replays to exactly the acknowledged
//! prefix. Compound mutations commit as a single atomic
//! [`StoreOp::Batch`] (one WAL frame): a `link` batches the relation
//! with its inverse, a `delete` batches one `Unlink` per severed pair
//! with the `RemoveObject` — so a crash can never persist a forward
//! link whose inverse is missing, or a half-severed object.

use crate::error::{ObjDbError, Result};
use crate::value::{Oid, Value};
use sqo_datalog::program::EdbDatabase;
use sqo_datalog::{Atom, Const, Literal, PredSym, Rule, Term};
use sqo_odl::{BaseType, Member, Schema, Type};
use sqo_store::{PersistReport, ShardedStore, StoreOp, StoreView};
use sqo_translate::{translate_schema, ArgType, Catalog, RelKind, RelationDecl};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// A stored object (or structure instance).
#[derive(Debug, Clone)]
pub struct Object {
    /// The most specific class (or structure) name.
    pub class: String,
    /// Attribute values by attribute name.
    pub attrs: BTreeMap<String, Value>,
}

/// A registered method implementation. `Send` so a populated store can
/// move behind a `Mutex` shared across service worker threads.
pub type MethodFn = Box<dyn Fn(&ObjectDb, Oid, &[Value]) -> Result<Value> + Send>;

/// A defined access support relation.
#[derive(Debug, Clone)]
pub struct AsrDef {
    /// The view predicate name.
    pub name: String,
    /// The class the path starts at, as given to `define_asr` (kept so
    /// the definition can be re-played from a durable store).
    pub src_class: String,
    /// The relationship *member* names along the path, as given to
    /// `define_asr`.
    pub src_path: Vec<String>,
    /// The relationship predicates along the path, in order.
    pub path: Vec<String>,
    /// The view definition rule `asr(X0, Xn) ← r1(X0, X1), …`.
    pub rule: Rule,
}

/// One relationship pair: (relation predicate, from OID, to OID).
type Pair = (PredSym, Const, Const);

/// The in-memory object database.
pub struct ObjectDb {
    schema: Schema,
    catalog: Catalog,
    objects: HashMap<Oid, Object>,
    /// Extents per class/structure name — a class's extent includes its
    /// subclasses' instances.
    extents: HashMap<String, Vec<Oid>>,
    methods: HashMap<String, MethodFn>,
    asrs: Vec<AsrDef>,
    /// Per class/structure name, the relations its objects live in.
    owners: HashMap<String, Vec<Owner>>,
    next_oid: u64,
    /// Local epoch, bumped by every mutation (method registration too).
    generation: u64,
    /// Attached durable store; `None` for a purely in-memory database.
    store: Option<Arc<ShardedStore>>,
    /// The maintained Datalog representation; deltas go through
    /// `Arc::make_mut`, which copies only while a pin is held.
    edb: RefCell<Arc<EdbDatabase>>,
    /// (method predicate, arguments) combinations materialized into the
    /// EDB since the last mutation.
    method_facts: RefCell<HashSet<(String, Vec<Const>)>>,
}

impl std::fmt::Debug for ObjectDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectDb")
            .field("objects", &self.objects.len())
            .field("classes", &self.extents.len())
            .field("asrs", &self.asrs.len())
            .finish()
    }
}

/// Declare every catalog relation of an empty EDB with its indexes: the
/// one full EDB construction (counted by `objdb.edb_builds`).
fn declare_edb(schema: &Schema, catalog: &Catalog) -> EdbDatabase {
    sqo_obs::bump(sqo_obs::Counter::EdbBuilds);
    let mut db = EdbDatabase::new();
    for decl in &catalog.relations {
        match &decl.kind {
            RelKind::Class { class } | RelKind::Struct { strct: class } => {
                let pred = decl.pred;
                let extent = extent_pred(pred);
                db.declare(pred, decl.arity());
                db.declare(extent, 1);
                // Physical design: the OID column and every declared
                // (single-attribute) key get a hash index; numeric
                // attributes get an ordered index for range probes.
                // String attributes stay unindexed unless they are
                // keys — equality on a non-key string is a scan.
                db.declare_hash_index(pred, 0);
                db.declare_hash_index(extent, 0);
                if let Some(cls) = schema.class(class) {
                    for key in &cls.keys {
                        if let [attr] = key.as_slice() {
                            if let Some(pos) = decl.arg_position(attr) {
                                db.declare_hash_index(pred, pos);
                            }
                        }
                    }
                }
                for (pos, arg) in decl.args.iter().enumerate().skip(1) {
                    if matches!(
                        arg.ty,
                        ArgType::Base(BaseType::Int) | ArgType::Base(BaseType::Real)
                    ) {
                        db.declare_ordered_index(pred, pos);
                    }
                }
            }
            RelKind::Relationship { .. } | RelKind::View { .. } => {
                declare_binary(&mut db, decl.pred)
            }
            RelKind::Method { .. } => {
                db.declare(decl.pred, decl.arity());
                db.declare_hash_index(decl.pred, 0);
            }
        }
    }
    db
}

/// Declare a binary OID relation (relationship or ASR) with hash indexes
/// on both endpoints.
fn declare_binary(db: &mut EdbDatabase, pred: PredSym) {
    db.declare(pred, 2);
    db.declare_hash_index(pred, 0);
    db.declare_hash_index(pred, 1);
}

/// The unary extent-membership relation of a class/structure relation.
fn extent_pred(pred: PredSym) -> PredSym {
    PredSym::new(format!("{}__extent", pred.name()))
}

/// A relation an object lives in: (class or structure name, catalog
/// index of its relation, its `__extent` relation).
type Owner = (String, usize, PredSym);

/// Per class/structure name, its objects' relations: the class and every
/// superclass (a class relation holds its subclasses' objects), or the
/// structure itself.
fn owner_map(schema: &Schema, catalog: &Catalog) -> HashMap<String, Vec<Owner>> {
    let index: HashMap<&str, usize> = catalog
        .relations
        .iter()
        .enumerate()
        .filter_map(|(i, d)| match &d.kind {
            RelKind::Class { class } | RelKind::Struct { strct: class } => {
                Some((class.as_str(), i))
            }
            _ => None,
        })
        .collect();
    let owner = |name: &str| {
        let i = index[name];
        (name.to_string(), i, extent_pred(catalog.relations[i].pred))
    };
    index
        .keys()
        .map(|&name| {
            let owners = match schema.class(name) {
                Some(_) => schema.chain(name).iter().map(|c| owner(&c.name)).collect(),
                None => vec![owner(name)],
            };
            (name.to_string(), owners)
        })
        .collect()
}

/// Object `oid`'s tuple in class/structure relation `decl` (a missing
/// attribute takes its column type's default). The one place object
/// tuples are formed: writes and recovery both come through here.
fn object_tuple(decl: &RelationDecl, oid: Oid, attrs: &BTreeMap<String, Value>) -> Vec<Const> {
    let mut tuple: Vec<Const> = vec![Const::Oid(oid.0)];
    for arg in decl.args.iter().skip(1) {
        tuple.push(
            attrs
                .get(&arg.name)
                .map(Value::to_const)
                .unwrap_or(match &arg.ty {
                    ArgType::Oid(_) => Const::Oid(0),
                    ArgType::Base(BaseType::Str) => Const::Str(sqo_datalog::Sym::intern("")),
                    ArgType::Base(BaseType::Real) => Const::Real(0.0.into()),
                    ArgType::Base(BaseType::Bool) => Const::Bool(false),
                    ArgType::Base(BaseType::Int) => Const::Int(0),
                }),
        );
    }
    tuple
}

fn oid_of(c: &Const) -> Oid {
    match c {
        Const::Oid(o) => Oid(*o),
        other => unreachable!("relationship column holds non-OID {other}"),
    }
}

/// Walk `hops` from `from` over the relationship relations' hash
/// indexes: with `key_col` 0 forwards (from → to), with 1 backwards.
/// Returns the distinct nodes reached after the last hop.
fn walk<'a>(
    edb: &EdbDatabase,
    hops: impl Iterator<Item = &'a String>,
    from: Const,
    key_col: usize,
) -> Vec<Const> {
    let mut frontier = vec![from];
    for hop in hops {
        let Some(rel) = edb.relation(&PredSym::new(hop.as_str())) else {
            return Vec::new();
        };
        let mut seen = HashSet::new();
        frontier = frontier
            .iter()
            .flat_map(|node| rel.hash_probe(key_col, node).unwrap_or(&[]))
            .map(|&pos| rel.tuple_at(pos)[1 - key_col])
            .filter(|c| seen.insert(*c))
            .collect();
    }
    frontier
}

/// Every (start, end) pair of an ASR path over the current relations:
/// the union of the deltas of the first hop's pairs.
fn asr_pairs(edb: &EdbDatabase, path: &[String]) -> Vec<(Const, Const)> {
    let first = PredSym::new(path[0].as_str());
    let pairs = edb.relation(&first).map_or(&[][..], |r| r.tuples());
    pairs
        .iter()
        .flat_map(|t| asr_delta(edb, path, &(first, t[0], t[1])))
        .collect()
}

/// The semi-naive insert delta of an ASR path for a new pair `(f, t)` of
/// relation `pred` (already inserted): at every hop `i` that `pred`
/// occupies, the prefix paths ending at `f` joined with the suffix paths
/// starting at `t`.
fn asr_delta(edb: &EdbDatabase, path: &[String], (pred, f, t): &Pair) -> Vec<(Const, Const)> {
    let mut out = Vec::new();
    for i in (0..path.len()).filter(|&i| path[i] == pred.name()) {
        let ends = walk(edb, path[i + 1..].iter(), *t, 0);
        for s in walk(edb, path[..i].iter().rev(), *f, 1) {
            out.extend(ends.iter().map(|e| (s, *e)));
        }
    }
    out
}

impl ObjectDb {
    /// Create an empty database over a schema.
    pub fn new(schema: Schema) -> Self {
        let catalog = translate_schema(&schema);
        let edb = declare_edb(&schema, &catalog);
        let owners = owner_map(&schema, &catalog);
        ObjectDb {
            extents: owners.keys().map(|k| (k.clone(), Vec::new())).collect(),
            owners,
            schema,
            catalog,
            objects: HashMap::new(),
            methods: HashMap::new(),
            asrs: Vec::new(),
            next_oid: 1,
            generation: 0,
            store: None,
            edb: RefCell::new(Arc::new(edb)),
            method_facts: RefCell::default(),
        }
    }

    /// Open (or create) a durable database at `dir`: recovers the store
    /// (latest snapshot plus WAL tail) and attaches it so subsequent
    /// mutations are logged. Registered methods are *not* persisted —
    /// re-register them after opening.
    pub fn open(schema: Schema, dir: &Path, n_shards: usize) -> Result<ObjectDb> {
        let store = Arc::new(ShardedStore::open(dir, n_shards)?);
        Self::from_store(schema, store)
    }

    /// Build a database from an already-opened store, replaying its
    /// current view into the in-memory representation, then attach it.
    pub fn from_store(schema: Schema, store: Arc<ShardedStore>) -> Result<ObjectDb> {
        let mut db = ObjectDb::new(schema);
        let view = store.view();
        db.load_view(&view)?;
        db.next_oid = view.next_oid().max(1);
        db.generation = view.generation();
        db.store = Some(store);
        Ok(db)
    }

    /// Dump the current logical state into a fresh store at `dir` and
    /// write a snapshot. The target directory must not already hold
    /// store state. The receiver keeps (or keeps lacking) its own
    /// attachment; use [`ObjectDb::open`] on `dir` to work against the
    /// copy.
    pub fn save_to(&self, dir: &Path, n_shards: usize) -> Result<PersistReport> {
        let store = ShardedStore::open(dir, n_shards)?;
        if store.object_count() != 0 {
            return Err(ObjDbError::Store(sqo_store::StoreError::Invalid {
                detail: format!("save_to target {} is not empty", dir.display()),
            }));
        }
        let mut oids: Vec<&Oid> = self.objects.keys().collect();
        oids.sort_unstable();
        for oid in oids {
            let obj = &self.objects[oid];
            store.apply(&StoreOp::PutObject {
                oid: oid.0,
                class: obj.class.clone(),
                attrs: obj
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_store()))
                    .collect(),
            })?;
        }
        let edb = self.edb.borrow();
        for pred in preds_of(&self.catalog, |k| matches!(k, RelKind::Relationship { .. })) {
            for t in edb.relation(&pred).map_or(&[][..], |r| r.tuples()) {
                store.apply(&pair_op(&(pred, t[0], t[1]), true))?;
            }
        }
        for def in &self.asrs {
            store.apply(&StoreOp::DefineAsr {
                name: def.name.clone(),
                class: def.src_class.clone(),
                path: def.src_path.clone(),
            })?;
        }
        store.bump_next_oid(self.next_oid);
        Ok(store.persist()?)
    }

    /// Replay a pinned store view into the (empty) database through the
    /// same per-object and per-link paths the mutators use.
    fn load_view(&mut self, view: &StoreView) -> Result<()> {
        // Objects in OID order: OIDs allocate monotonically in creation
        // order, so this reproduces every extent's original order.
        for (oid, obj) in view.objects_sorted() {
            let attrs = obj
                .attrs
                .iter()
                .map(|(k, v)| (k.clone(), Value::from_store(v)))
                .collect();
            self.add_object(Oid(oid), &obj.class, attrs)?;
        }
        // Links in global sequence-stamp order: per-predicate insertion
        // order comes back exactly (inverses are their own pairs).
        for (pred, pairs) in view.links_by_pred() {
            let pred = PredSym::new(pred);
            let pairs: Vec<Pair> = pairs
                .into_iter()
                .map(|(f, t)| (pred, Const::Oid(f), Const::Oid(t)))
                .collect();
            self.insert_pairs(&pairs);
        }
        for asr in view.asrs() {
            let path: Vec<&str> = asr.path.iter().map(String::as_str).collect();
            self.install_asr(&asr.name, &asr.class, &path)?;
        }
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The Step 1 catalog (with registered ASR views).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The defined access support relations.
    pub fn asrs(&self) -> &[AsrDef] {
        &self.asrs
    }

    /// View rules for all defined ASRs (for the SQO transform context).
    pub fn asr_rules(&self) -> Vec<Rule> {
        self.asrs.iter().map(|a| a.rule.clone()).collect()
    }

    /// The local epoch, bumped by every mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<ShardedStore>> {
        self.store.as_ref()
    }

    /// The attached store's generation (0 for an in-memory database).
    pub fn store_generation(&self) -> u64 {
        self.store.as_ref().map(|s| s.generation()).unwrap_or(0)
    }

    /// Force a snapshot of the attached store and truncate its WALs.
    /// `Ok(None)` for an in-memory database.
    pub fn persist(&self) -> Result<Option<PersistReport>> {
        match &self.store {
            Some(store) => Ok(Some(store.persist()?)),
            None => Ok(None),
        }
    }

    /// Bump the epoch and drop materialized method facts: a method may
    /// read any object, so its facts are re-materialized on demand after
    /// every change. Only the method relations are cleared.
    fn touch(&mut self) {
        self.generation += 1;
        if std::mem::take(self.method_facts.get_mut()).is_empty() {
            return;
        }
        let edb = Arc::make_mut(self.edb.get_mut());
        for pred in preds_of(&self.catalog, |k| matches!(k, RelKind::Method { .. })) {
            edb.clear(pred);
        }
    }

    /// Mirror a mutation into the attached store (if any), then bump
    /// the epoch. Called *before* the in-memory delta so a failed append
    /// leaves memory untouched. A compound mutation commits as a single
    /// atomic [`StoreOp::Batch`] — one WAL frame, so a crash persists
    /// either every component or none.
    fn log(&mut self, mut ops: Vec<StoreOp>) -> Result<()> {
        if let Some(store) = &self.store {
            let op = match ops.len() {
                1 => ops.pop().expect("one op"),
                _ => StoreOp::Batch { ops },
            };
            store.apply(&op)?;
        }
        self.touch();
        Ok(())
    }

    /// Materialize one object: the object map, its extents, and its
    /// tuple in every owning class/structure relation and `__extent`
    /// relation.
    fn add_object(&mut self, oid: Oid, class: &str, attrs: BTreeMap<String, Value>) -> Result<()> {
        let owners = self
            .owners
            .get(class)
            .ok_or_else(|| ObjDbError::UnknownClass {
                name: class.to_string(),
            })?;
        let edb = Arc::make_mut(self.edb.get_mut());
        for (name, i, extent) in owners {
            let decl = &self.catalog.relations[*i];
            edb.insert(decl.pred, object_tuple(decl, oid, &attrs))
                .expect("declared arity");
            edb.insert(*extent, vec![Const::Oid(oid.0)]).expect("unary");
            self.extents.get_mut(name).expect("declared").push(oid);
        }
        self.objects.insert(
            oid,
            Object {
                class: class.to_string(),
                attrs,
            },
        );
        Ok(())
    }

    /// Insert relationship pairs and propagate each into every ASR whose
    /// path runs through its relation.
    fn insert_pairs(&mut self, pairs: &[Pair]) {
        let edb = Arc::make_mut(self.edb.get_mut());
        for (pred, f, t) in pairs {
            edb.insert(*pred, vec![*f, *t]).expect("binary");
        }
        for def in &self.asrs {
            let asr = PredSym::new(def.name.as_str());
            for pair in pairs {
                for (s, e) in asr_delta(edb, &def.path, pair) {
                    edb.insert(asr, vec![s, e]).expect("binary");
                }
            }
        }
    }

    /// Remove relationship pairs and recompute the ASRs whose path runs
    /// through one of their relations (deletions are not propagated
    /// semi-naively).
    fn remove_pairs(&mut self, pairs: &[Pair]) {
        let edb = Arc::make_mut(self.edb.get_mut());
        for (pred, f, t) in pairs {
            edb.remove(*pred, &[*f, *t]);
        }
        let stale: BTreeSet<&str> = self
            .asrs
            .iter()
            .filter(|d| {
                d.path
                    .iter()
                    .any(|p| pairs.iter().any(|(pred, ..)| pred.name() == p))
            })
            .map(|d| d.name.as_str())
            .collect();
        for name in stale {
            let asr = PredSym::new(name);
            edb.clear(asr);
            for def in self.asrs.iter().filter(|d| d.name == name) {
                for (s, e) in asr_pairs(edb, &def.path) {
                    edb.insert(asr, vec![s, e]).expect("binary");
                }
            }
        }
    }

    fn alloc_oid(&mut self) -> Oid {
        let o = Oid(self.next_oid);
        self.next_oid += 1;
        o
    }

    fn default_value(&mut self, ty: &Type) -> Result<Value> {
        Ok(match ty {
            Type::Base(BaseType::Int) => Value::Int(0),
            Type::Base(BaseType::Real) => Value::Real(0.0),
            Type::Base(BaseType::Str) => Value::Str(String::new()),
            Type::Base(BaseType::Bool) => Value::Bool(false),
            Type::Named(n) => {
                let n = n.clone();
                // Auto-create a default structure instance.
                Value::Obj(self.create_struct(&n, Vec::new())?)
            }
            Type::Collection(..) => {
                return Err(ObjDbError::Unsupported {
                    feature: "collection-valued attributes".into(),
                })
            }
        })
    }

    /// Create an object of a class; missing attributes get defaults
    /// (structure attributes get auto-created structure instances).
    pub fn create(&mut self, class: &str, attrs: Vec<(&str, Value)>) -> Result<Oid> {
        if self.schema.class(class).is_none() {
            return Err(ObjDbError::UnknownClass {
                name: class.to_string(),
            });
        }
        let declared: Vec<(String, Type)> = self
            .schema
            .all_attributes(class)
            .into_iter()
            .map(|(_, a)| (a.name.clone(), a.ty.clone()))
            .collect();
        let mut provided: BTreeMap<&str, Value> = BTreeMap::new();
        for (k, v) in attrs {
            if !declared.iter().any(|(n, _)| n == k) {
                return Err(ObjDbError::BadAttribute {
                    class: class.to_string(),
                    attribute: k.to_string(),
                    detail: "not declared".into(),
                });
            }
            provided.insert(k, v);
        }
        self.create_object(class, declared, provided)
    }

    /// Create a structure instance.
    pub fn create_struct(&mut self, strct: &str, fields: Vec<(&str, Value)>) -> Result<Oid> {
        let declared: Vec<(String, Type)> = self
            .schema
            .structure(strct)
            .ok_or_else(|| ObjDbError::UnknownClass {
                name: strct.to_string(),
            })?
            .fields
            .iter()
            .map(|f| (f.name.clone(), f.ty.clone()))
            .collect();
        self.create_object(strct, declared, fields.into_iter().collect())
    }

    /// Type-check and default the declared attributes, log the object,
    /// then apply its delta.
    fn create_object(
        &mut self,
        class: &str,
        declared: Vec<(String, Type)>,
        mut provided: BTreeMap<&str, Value>,
    ) -> Result<Oid> {
        let mut final_attrs = BTreeMap::new();
        for (name, ty) in &declared {
            let value = match provided.remove(name.as_str()) {
                Some(v) => self.check_type(class, name, ty, v)?,
                None => self.default_value(ty)?,
            };
            final_attrs.insert(name.clone(), value);
        }
        let oid = self.alloc_oid();
        self.log(vec![StoreOp::PutObject {
            oid: oid.0,
            class: class.to_string(),
            attrs: final_attrs
                .iter()
                .map(|(k, v)| (k.clone(), v.to_store()))
                .collect(),
        }])?;
        self.add_object(oid, class, final_attrs)?;
        Ok(oid)
    }

    fn check_type(&self, owner: &str, attr: &str, ty: &Type, v: Value) -> Result<Value> {
        let ok = match (ty, &v) {
            (Type::Base(BaseType::Int), Value::Int(_)) => true,
            (Type::Base(BaseType::Real), Value::Real(_) | Value::Int(_)) => true,
            (Type::Base(BaseType::Str), Value::Str(_)) => true,
            (Type::Base(BaseType::Bool), Value::Bool(_)) => true,
            (Type::Named(n), Value::Obj(o)) => match self.objects.get(o) {
                Some(obj) => obj.class == *n || self.schema.is_subclass_of(&obj.class, n),
                None => false,
            },
            _ => false,
        };
        if ok {
            // Coerce ints to reals where declared real.
            if let (Type::Base(BaseType::Real), Value::Int(i)) = (ty, &v) {
                return Ok(Value::Real(*i as f64));
            }
            Ok(v)
        } else {
            Err(ObjDbError::BadAttribute {
                class: owner.to_string(),
                attribute: attr.to_string(),
                detail: format!("value {v} does not match type {ty}"),
            })
        }
    }

    /// Set an attribute on an existing object.
    pub fn set_attr(&mut self, oid: Oid, attr: &str, v: Value) -> Result<()> {
        let class = self
            .objects
            .get(&oid)
            .ok_or(ObjDbError::UnknownObject { oid: oid.0 })?
            .class
            .clone();
        let ty = self
            .schema
            .all_attributes(&class)
            .into_iter()
            .find(|(_, a)| a.name == attr)
            .map(|(_, a)| a.ty.clone())
            .or_else(|| {
                self.schema
                    .structure(&class)
                    .and_then(|s| s.fields.iter().find(|f| f.name == attr))
                    .map(|f| f.ty.clone())
            })
            .ok_or_else(|| ObjDbError::BadAttribute {
                class: class.clone(),
                attribute: attr.to_string(),
                detail: "not declared".into(),
            })?;
        let v = self.check_type(&class, attr, &ty, v)?;
        self.log(vec![StoreOp::SetAttr {
            oid: oid.0,
            attr: attr.to_string(),
            value: v.to_store(),
        }])?;
        let obj = self.objects.get_mut(&oid).expect("checked above");
        obj.attrs.insert(attr.to_string(), v);
        // Replace the object's tuple in place in every relation that
        // carries the column.
        let edb = Arc::make_mut(self.edb.get_mut());
        for (_, i, _) in &self.owners[&class] {
            let decl = &self.catalog.relations[*i];
            if decl.arg_position(attr).is_none() {
                continue;
            }
            let pos = edb
                .relation(&decl.pred)
                .and_then(|r| r.hash_probe(0, &Const::Oid(oid.0)))
                .and_then(|ps| ps.first().copied())
                .expect("live object has a tuple");
            edb.replace(decl.pred, pos, object_tuple(decl, oid, &obj.attrs))?;
        }
        Ok(())
    }

    /// Look up an object.
    pub fn get(&self, oid: Oid) -> Option<&Object> {
        self.objects.get(&oid)
    }

    /// Read an attribute value.
    pub fn attr(&self, oid: Oid, name: &str) -> Option<&Value> {
        self.objects.get(&oid).and_then(|o| o.attrs.get(name))
    }

    /// The extent of a class (including subclass instances), in creation
    /// order.
    pub fn extent(&self, class: &str) -> &[Oid] {
        self.extents.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of live objects (including structure instances).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Resolve the relationship declaration reachable from an object's
    /// class, returning (target, many, relation predicate, inverse
    /// relation predicate if any).
    fn resolve_rel(
        &self,
        class: &str,
        rel: &str,
    ) -> Result<(String, bool, PredSym, Option<PredSym>)> {
        let Some(Member::Relationship(decl_cls, r)) = self.schema.find_member(class, rel) else {
            return Err(ObjDbError::UnknownRelationship {
                class: class.to_string(),
                name: rel.to_string(),
            });
        };
        let pred = self
            .catalog
            .relationship_relation(decl_cls, &r.name)
            .expect("relationship in catalog")
            .pred;
        let inv_pred = r.inverse.as_ref().and_then(|(icls, irel)| {
            self.catalog
                .relationship_relation(icls, irel)
                .map(|d| d.pred)
        });
        Ok((r.target.clone(), r.many, pred, inv_pred))
    }

    /// The pairs of relationship relation `pred` whose column `col` is
    /// `oid`, in insertion order (a hash-index probe).
    fn pairs_on(&self, pred: PredSym, col: usize, oid: Oid) -> Vec<Pair> {
        let edb = self.edb.borrow();
        let Some(rel) = edb.relation(&pred) else {
            return Vec::new();
        };
        rel.hash_probe(col, &Const::Oid(oid.0))
            .unwrap_or(&[])
            .iter()
            .map(|&p| (pred, rel.tuple_at(p)[0], rel.tuple_at(p)[1]))
            .collect()
    }

    fn has_pair(&self, pred: PredSym, from: Oid, to: Oid) -> bool {
        self.edb
            .borrow()
            .relation(&pred)
            .is_some_and(|r| r.contains(&[Const::Oid(from.0), Const::Oid(to.0)]))
    }

    /// Link two objects through a relationship (maintaining the inverse
    /// and enforcing cardinality).
    pub fn link(&mut self, from: Oid, rel: &str, to: Oid) -> Result<()> {
        let from_class = self
            .objects
            .get(&from)
            .ok_or(ObjDbError::UnknownObject { oid: from.0 })?
            .class
            .clone();
        let to_class = self
            .objects
            .get(&to)
            .ok_or(ObjDbError::UnknownObject { oid: to.0 })?
            .class
            .clone();
        let (target, many, pred, inv_pred) = self.resolve_rel(&from_class, rel)?;
        if !self.schema.is_subclass_of(&to_class, &target) {
            return Err(ObjDbError::TypeMismatch {
                expected: target,
                found: to_class,
            });
        }
        if self.has_pair(pred, from, to) {
            return Ok(()); // idempotent
        }
        if !many && !self.pairs_on(pred, 0, from).is_empty() {
            return Err(ObjDbError::Cardinality {
                relationship: format!("{from_class}::{rel}"),
                detail: format!("{from} is already linked (to-one side)"),
            });
        }
        // Cardinality on the inverse side.
        if let Some(inv) = inv_pred {
            let inv_many = self
                .catalog
                .relation_by_pred(&inv)
                .map(|d| matches!(&d.kind, RelKind::Relationship { many, .. } if *many))
                .unwrap_or(true);
            if !inv_many && !self.pairs_on(inv, 0, to).is_empty() {
                return Err(ObjDbError::Cardinality {
                    relationship: format!("inverse of {from_class}::{rel}"),
                    detail: format!("{to} is already linked (to-one inverse)"),
                });
            }
        }
        let pairs = with_inverse(pred, inv_pred, from, to);
        self.log(pairs.iter().map(|p| pair_op(p, true)).collect())?;
        self.insert_pairs(&pairs);
        Ok(())
    }

    /// The objects linked from `from` through a relationship.
    pub fn linked(&self, from: Oid, rel: &str) -> Result<Vec<Oid>> {
        let class = &self
            .objects
            .get(&from)
            .ok_or(ObjDbError::UnknownObject { oid: from.0 })?
            .class;
        let (_, _, pred, _) = self.resolve_rel(class, rel)?;
        Ok(self
            .pairs_on(pred, 0, from)
            .iter()
            .map(|(_, _, t)| oid_of(t))
            .collect())
    }

    /// Remove a relationship link (and its inverse). Returns whether the
    /// link existed.
    pub fn unlink(&mut self, from: Oid, rel: &str, to: Oid) -> Result<bool> {
        let from_class = &self
            .objects
            .get(&from)
            .ok_or(ObjDbError::UnknownObject { oid: from.0 })?
            .class;
        let (_, _, pred, inv_pred) = self.resolve_rel(from_class, rel)?;
        if !self.has_pair(pred, from, to) {
            return Ok(false);
        }
        let pairs = with_inverse(pred, inv_pred, from, to);
        self.log(pairs.iter().map(|p| pair_op(p, false)).collect())?;
        self.remove_pairs(&pairs);
        Ok(true)
    }

    /// Delete an object: removes it from every extent, severs every
    /// relationship link it participates in (maintaining inverses), and
    /// drops it from the store. Structure instances owned through
    /// attributes are left in place (they may be shared in the Datalog
    /// representation).
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let class = self
            .objects
            .get(&oid)
            .ok_or(ObjDbError::UnknownObject { oid: oid.0 })?
            .class
            .clone();
        // The severed pairs, from both endpoint indexes of every
        // relationship relation (inverse pairs are their own entries).
        let mut severed: Vec<Pair> = Vec::new();
        for pred in preds_of(&self.catalog, |k| matches!(k, RelKind::Relationship { .. })) {
            for pair in [0, 1].into_iter().flat_map(|c| self.pairs_on(pred, c, oid)) {
                if !severed.contains(&pair) {
                    severed.push(pair);
                }
            }
        }
        // One Unlink per severed pair, then the removal — committed as
        // one atomic batch frame.
        let mut ops: Vec<StoreOp> = severed.iter().map(|p| pair_op(p, false)).collect();
        ops.push(StoreOp::RemoveObject { oid: oid.0 });
        self.log(ops)?;
        let obj = self.objects.remove(&oid).expect("checked above");
        let edb = Arc::make_mut(self.edb.get_mut());
        for (name, i, extent) in &self.owners[&class] {
            let decl = &self.catalog.relations[*i];
            edb.remove(decl.pred, &object_tuple(decl, oid, &obj.attrs));
            edb.remove(*extent, &[Const::Oid(oid.0)]);
            self.extents
                .get_mut(name)
                .expect("declared")
                .retain(|o| *o != oid);
        }
        self.remove_pairs(&severed);
        Ok(())
    }

    /// Register a method implementation for `class::name`.
    pub fn register_method(&mut self, class: &str, name: &str, f: MethodFn) -> Result<()> {
        let decl = self
            .catalog
            .method_relation(class, name)
            .ok_or_else(|| ObjDbError::Method {
                name: format!("{class}::{name}"),
                detail: "not declared in the schema".into(),
            })?;
        self.methods.insert(decl.pred.name().to_string(), f);
        // Methods are closures, not durable state: bump the epoch (which
        // drops facts the previous implementation produced) without
        // logging a store op.
        self.touch();
        Ok(())
    }

    /// Invoke a registered method.
    pub fn call_method(&self, pred: &str, receiver: Oid, args: &[Value]) -> Result<Value> {
        let f = self.methods.get(pred).ok_or_else(|| ObjDbError::Method {
            name: pred.to_string(),
            detail: "no implementation registered".into(),
        })?;
        f(self, receiver, args)
    }

    /// Define (and materialize) an access support relation over a path of
    /// relationship names starting at `class`. Returns the view predicate.
    /// From then on `link` maintains it by semi-naive deltas; `unlink` and
    /// `delete` recompute it when they touch its path.
    pub fn define_asr(&mut self, name: &str, class: &str, path: &[&str]) -> Result<PredSym> {
        let pred = self.install_asr(name, class, path)?;
        self.log(vec![StoreOp::DefineAsr {
            name: pred.name().to_string(),
            class: class.to_string(),
            path: path.iter().map(|s| s.to_string()).collect(),
        }])?;
        Ok(pred)
    }

    /// `define_asr` minus the durable logging (shared with store
    /// recovery, which replays recorded definitions).
    fn install_asr(&mut self, name: &str, class: &str, path: &[&str]) -> Result<PredSym> {
        if path.is_empty() {
            return Err(ObjDbError::BadAsrPath {
                detail: "empty path".into(),
            });
        }
        let mut preds = Vec::new();
        let mut cur_class = class.to_string();
        for rel in path {
            if self.schema.class(&cur_class).is_none() {
                return Err(ObjDbError::UnknownClass { name: cur_class });
            }
            let (target, _, pred, _) = self.resolve_rel(&cur_class, rel)?;
            preds.push(pred.name().to_string());
            cur_class = target;
        }
        // Build the view rule asr(X0, Xn) ← r1(X0, X1), …, rn(Xn-1, Xn).
        let mut body = Vec::new();
        for (i, p) in preds.iter().enumerate() {
            body.push(Literal::pos(
                p.as_str(),
                vec![Term::var(format!("X{i}")), Term::var(format!("X{}", i + 1))],
            ));
        }
        let head = Atom::new(
            name.to_lowercase(),
            vec![Term::var("X0"), Term::var(format!("X{}", preds.len()))],
        );
        let rule = Rule::new(head, body);
        let pred = self.catalog.register_view(name, 2);
        let edb = Arc::make_mut(self.edb.get_mut());
        declare_binary(edb, pred);
        for (s, e) in asr_pairs(edb, &preds) {
            edb.insert(pred, vec![s, e]).expect("binary");
        }
        self.asrs.push(AsrDef {
            name: pred.name().to_string(),
            src_class: class.to_string(),
            src_path: path.iter().map(|s| s.to_string()).collect(),
            path: preds,
            rule,
        });
        Ok(pred)
    }

    /// The Datalog representation of the whole store.
    ///
    /// Holds: full class/structure relations (a class relation contains
    /// its subclasses' objects, projected onto the class's attributes),
    /// unary `{pred}__extent` relations for cheap extent membership,
    /// relationship relations, and materialized ASR relations, all kept
    /// current by the mutators. Method relations are materialized lazily
    /// per (method, arguments) combo by
    /// [`ensure_method_facts`](Self::ensure_method_facts).
    pub fn edb(&self) -> std::cell::Ref<'_, EdbDatabase> {
        std::cell::Ref::map(self.edb.borrow(), |e| e.as_ref())
    }

    /// A consistent EDB snapshot pinned at the current generation.
    ///
    /// The returned `Arc` stays valid and *unchanged* while later
    /// writers advance the database: the first write (or late method
    /// materialization) after a pin copies the EDB before changing it.
    /// Long-running evaluations should pin once and evaluate against the
    /// pin; holding no pin keeps writes copy-free.
    pub fn edb_pinned(&self) -> Arc<EdbDatabase> {
        self.edb.borrow().clone()
    }

    /// Build a fresh EDB from a pinned store view, so an EDB build can
    /// run against a consistent generation while writers keep advancing
    /// the attached store.
    pub fn edb_for_view(&self, view: &StoreView) -> Result<EdbDatabase> {
        let mut tmp = ObjectDb::new(self.schema.clone());
        tmp.load_view(view)?;
        Ok(Arc::unwrap_or_clone(tmp.edb.into_inner()))
    }

    /// Ensure method facts for the given (method predicate, constant
    /// arguments) combination exist in the EDB. Returns the number of
    /// invocations performed (0 when already materialized).
    pub fn ensure_method_facts(&self, pred: &str, args: &[Const]) -> Result<u64> {
        let key = (pred.to_string(), args.to_vec());
        if self.method_facts.borrow().contains(&key) {
            return Ok(0);
        }
        let decl = self
            .catalog
            .relation_by_pred(&PredSym::new(pred))
            .ok_or_else(|| ObjDbError::Method {
                name: pred.to_string(),
                detail: "unknown method relation".into(),
            })?;
        let RelKind::Method { class, .. } = &decl.kind else {
            return Err(ObjDbError::Method {
                name: pred.to_string(),
                detail: "not a method relation".into(),
            });
        };
        let values: Vec<Value> = args.iter().map(Value::from_const).collect();
        let receivers = self.extent(class);
        let mut facts: Vec<Vec<Const>> = Vec::with_capacity(receivers.len());
        for &oid in receivers {
            let out = self.call_method(pred, oid, &values)?;
            let mut tuple = vec![Const::Oid(oid.0)];
            tuple.extend(args.iter().cloned());
            tuple.push(out.to_const());
            facts.push(tuple);
        }
        let calls = facts.len() as u64;
        // Copy-on-write: if a pinned snapshot holds the Arc, the clone
        // keeps the pin isolated from the new facts.
        let mut edb = self.edb.borrow_mut();
        let db = Arc::make_mut(&mut edb);
        for t in facts {
            db.insert(PredSym::new(pred), t).map_err(ObjDbError::from)?;
        }
        self.method_facts.borrow_mut().insert(key);
        Ok(calls)
    }
}

/// The pair `from → to` of relation `pred`, and its inverse pair.
fn with_inverse(pred: PredSym, inv: Option<PredSym>, from: Oid, to: Oid) -> Vec<Pair> {
    let (f, t) = (Const::Oid(from.0), Const::Oid(to.0));
    std::iter::once((pred, f, t))
        .chain(inv.map(|i| (i, t, f)))
        .collect()
}

/// The store operation linking (or unlinking) one relationship pair.
fn pair_op((pred, f, t): &Pair, link: bool) -> StoreOp {
    let (pred, from, to) = (pred.name().to_string(), oid_of(f).0, oid_of(t).0);
    if link {
        StoreOp::Link { pred, from, to }
    } else {
        StoreOp::Unlink { pred, from, to }
    }
}

/// The catalog relations of one kind.
fn preds_of(catalog: &Catalog, kind: fn(&RelKind) -> bool) -> impl Iterator<Item = PredSym> + '_ {
    catalog
        .relations
        .iter()
        .filter(move |d| kind(&d.kind))
        .map(|d| d.pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_odl::fixtures::university_schema;

    fn db() -> ObjectDb {
        ObjectDb::new(university_schema())
    }

    #[test]
    fn create_with_defaults_and_extents() {
        let mut d = db();
        let p = d
            .create(
                "Faculty",
                vec![("name", "smith".into()), ("age", Value::Int(50))],
            )
            .unwrap();
        let obj = d.get(p).unwrap();
        assert_eq!(obj.class, "Faculty");
        assert_eq!(obj.attrs["name"], Value::Str("smith".into()));
        // salary defaulted; address auto-created.
        assert_eq!(obj.attrs["salary"], Value::Real(0.0));
        assert!(matches!(obj.attrs["address"], Value::Obj(_)));
        // Extent membership up the chain.
        assert_eq!(d.extent("Faculty").len(), 1);
        assert_eq!(d.extent("Employee").len(), 1);
        assert_eq!(d.extent("Person").len(), 1);
        assert_eq!(d.extent("Student").len(), 0);
    }

    #[test]
    fn attribute_type_checking() {
        let mut d = db();
        assert!(d
            .create("Person", vec![("age", Value::Str("old".into()))])
            .is_err());
        assert!(d.create("Person", vec![("wings", Value::Int(2))]).is_err());
        // Int coerces to declared float.
        let e = d
            .create("Employee", vec![("salary", Value::Int(50000))])
            .unwrap();
        assert_eq!(d.attr(e, "salary"), Some(&Value::Real(50000.0)));
    }

    #[test]
    fn link_maintains_inverse_and_cardinality() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        let course = d.create("Course", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        // Inverse maintained.
        assert_eq!(d.linked(sec, "taken_by").unwrap(), vec![s]);
        // Many-many allows more links.
        let sec2 = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec2).unwrap();
        // To-one: a section has exactly one course.
        d.link(sec, "is_section_of", course).unwrap();
        let course2 = d.create("Course", vec![]).unwrap();
        assert!(matches!(
            d.link(sec, "is_section_of", course2),
            Err(ObjDbError::Cardinality { .. })
        ));
        // Idempotent re-link is fine.
        d.link(s, "takes", sec).unwrap();
    }

    #[test]
    fn one_to_one_enforced_via_inverse() {
        let mut d = db();
        let sec = d.create("Section", vec![]).unwrap();
        let sec2 = d.create("Section", vec![]).unwrap();
        let ta = d.create("TA", vec![]).unwrap();
        d.link(sec, "has_ta", ta).unwrap();
        // The same TA cannot assist a second section (inverse is to-one).
        assert!(matches!(
            d.link(sec2, "has_ta", ta),
            Err(ObjDbError::Cardinality { .. })
        ));
    }

    #[test]
    fn link_type_mismatch_rejected() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let p = d.create("Person", vec![]).unwrap();
        assert!(matches!(
            d.link(s, "takes", p),
            Err(ObjDbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn edb_contains_class_extent_and_relationship_facts() {
        let mut d = db();
        let s = d
            .create(
                "Student",
                vec![("name", "ann".into()), ("age", Value::Int(20))],
            )
            .unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        let edb = d.edb();
        // Person relation includes the student (subclass member).
        let person = edb.relation(&"person".into()).unwrap();
        assert_eq!(person.len(), 1);
        let student = edb.relation(&"student".into()).unwrap();
        assert_eq!(student.len(), 1);
        assert!(edb.relation(&"person__extent".into()).unwrap().len() == 1);
        let takes = edb.relation(&"takes".into()).unwrap();
        assert_eq!(takes.tuples()[0], vec![Const::Oid(s.0), Const::Oid(sec.0)]);
        let taken_by = edb.relation(&"taken_by".into()).unwrap();
        assert_eq!(taken_by.len(), 1);
        // Structure instances present (auto-created addresses).
        assert!(!edb.relation(&"address".into()).unwrap().is_empty());
    }

    #[test]
    fn methods_materialize_lazily() {
        let mut d = db();
        let f = d
            .create("Faculty", vec![("salary", Value::Real(50000.0))])
            .unwrap();
        d.register_method(
            "Employee",
            "taxes_withheld",
            Box::new(|db, oid, args| {
                let salary = db
                    .attr(oid, "salary")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                let rate = args.first().and_then(Value::as_f64).unwrap_or(0.0);
                Ok(Value::Real(salary * rate))
            }),
        )
        .unwrap();
        let calls = d
            .ensure_method_facts("taxes_withheld", &[Const::Real(0.1.into())])
            .unwrap();
        assert_eq!(calls, 1);
        // Second time: cached.
        let calls2 = d
            .ensure_method_facts("taxes_withheld", &[Const::Real(0.1.into())])
            .unwrap();
        assert_eq!(calls2, 0);
        let edb = d.edb();
        let m = edb.relation(&"taxes_withheld".into()).unwrap();
        assert_eq!(
            m.tuples()[0],
            vec![
                Const::Oid(f.0),
                Const::Real(0.1.into()),
                Const::Real(5000.0.into())
            ]
        );
    }

    #[test]
    fn asr_definition_and_materialization() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        let course = d.create("Course", vec![]).unwrap();
        let sec2 = d.create("Section", vec![]).unwrap();
        let ta = d.create("TA", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        d.link(sec, "is_section_of", course).unwrap();
        d.link(course, "has_sections", sec2).unwrap();
        d.link(sec2, "has_ta", ta).unwrap();
        let pred = d
            .define_asr(
                "asr",
                "Student",
                &["takes", "is_section_of", "has_sections", "has_ta"],
            )
            .unwrap();
        assert_eq!(pred.name(), "asr");
        let edb = d.edb();
        let asr = edb.relation(&pred).unwrap();
        assert_eq!(asr.tuples(), &[vec![Const::Oid(s.0), Const::Oid(ta.0)]]);
        // The view rule is available for the optimizer.
        assert_eq!(d.asr_rules().len(), 1);
        assert_eq!(
            d.asr_rules()[0].to_string(),
            "asr(X0, X4) <- takes(X0, X1), is_section_of(X1, X2), \
             has_sections(X2, X3), has_ta(X3, X4)"
        );
    }

    #[test]
    fn bad_asr_paths_rejected() {
        let mut d = db();
        assert!(d.define_asr("v", "Student", &[]).is_err());
        assert!(d.define_asr("v", "Student", &["nope"]).is_err());
        assert!(d.define_asr("v", "Martian", &["takes"]).is_err());
    }

    #[test]
    fn unlink_removes_both_directions() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        assert!(d.unlink(s, "takes", sec).unwrap());
        assert!(d.linked(s, "takes").unwrap().is_empty());
        assert!(d.linked(sec, "taken_by").unwrap().is_empty());
        // Second unlink is a no-op.
        assert!(!d.unlink(s, "takes", sec).unwrap());
        // The EDB no longer carries the pair.
        let edb = d.edb();
        assert!(edb.relation(&"takes".into()).is_none_or(|r| r.is_empty()));
    }

    #[test]
    fn unlink_frees_to_one_slot() {
        let mut d = db();
        let sec = d.create("Section", vec![]).unwrap();
        let c1 = d.create("Course", vec![]).unwrap();
        let c2 = d.create("Course", vec![]).unwrap();
        d.link(sec, "is_section_of", c1).unwrap();
        assert!(d.link(sec, "is_section_of", c2).is_err());
        d.unlink(sec, "is_section_of", c1).unwrap();
        d.link(sec, "is_section_of", c2).unwrap();
    }

    #[test]
    fn delete_severs_links_and_extents() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        d.delete(s).unwrap();
        assert!(d.get(s).is_none());
        assert_eq!(d.extent("Student").len(), 0);
        assert_eq!(d.extent("Person").len(), 0);
        assert!(d.linked(sec, "taken_by").unwrap().is_empty());
        assert!(matches!(d.delete(s), Err(ObjDbError::UnknownObject { .. })));
    }

    #[test]
    fn set_attr_checks_types_and_invalidates() {
        let mut d = db();
        let p = d.create("Person", vec![]).unwrap();
        {
            let edb = d.edb();
            assert_eq!(edb.relation(&"person".into()).unwrap().len(), 1);
        }
        d.set_attr(p, "age", Value::Int(44)).unwrap();
        assert!(d.set_attr(p, "age", Value::Str("x".into())).is_err());
        let edb = d.edb();
        let person = edb.relation(&"person".into()).unwrap();
        let pos = d
            .catalog()
            .class_relation("Person")
            .unwrap()
            .arg_position("age")
            .unwrap();
        assert_eq!(person.tuples()[0][pos], Const::Int(44));
    }
}
