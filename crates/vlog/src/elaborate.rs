//! Elaboration: from a parsed [`SourceFile`] to a flattened, width-resolved design.
//!
//! Elaboration performs the front-end work that Cascade does before handing
//! sub-programs to engines (§2.1 of the paper):
//!
//! * parameters and localparams are constant-folded and substituted,
//! * module instances are inlined into the root module with `inst__`-prefixed
//!   names (the runtime manages the user design as a single sub-program; the
//!   hypervisor still coalesces *applications* as in §4.1),
//! * wire initialisers become continuous assignments,
//! * register initialisers are constant-folded into reset values,
//! * every variable gets a resolved width (and depth for 1-D memories).

use crate::ast::*;
use crate::error::{VlogError, VlogResult};
use crate::parser::const_eval;
use crate::Bits;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Resolved information about one variable in the elaborated design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarInfo {
    /// Variable name (hierarchical names use `__` separators).
    pub name: String,
    /// Declaration kind.
    pub kind: NetKind,
    /// Bit width of the variable (element width for memories).
    pub width: usize,
    /// Number of elements for 1-D memories; `None` for scalars.
    pub depth: Option<usize>,
    /// Constant initial value, if one was declared (registers only).
    pub init: Option<Bits>,
    /// Whether the declaration carried a `(* non_volatile *)` attribute.
    pub non_volatile: bool,
    /// Port direction if the variable is a port of the root module.
    pub port: Option<PortDir>,
}

impl VarInfo {
    /// Total number of state bits held by this variable.
    pub fn state_bits(&self) -> usize {
        self.width * self.depth.unwrap_or(1)
    }

    /// `true` if the variable holds sequential state (reg/integer).
    pub fn is_register(&self) -> bool {
        matches!(self.kind, NetKind::Reg | NetKind::Integer)
    }
}

/// A flattened, elaborated module: the unit consumed by the interpreter, the
/// SYNERGY transformations, and the synthesis estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ElabModule {
    /// Root module name.
    pub name: String,
    /// Variables by name.
    pub vars: BTreeMap<String, VarInfo>,
    /// Continuous assignments in dependency order as written.
    pub assigns: Vec<Assign>,
    /// Procedural `always` blocks.
    pub always: Vec<AlwaysBlock>,
    /// `initial` blocks.
    pub initials: Vec<Stmt>,
}

impl ElabModule {
    /// Looks up a variable.
    pub fn var(&self, name: &str) -> Option<&VarInfo> {
        self.vars.get(name)
    }

    /// Width of a variable, or 32 if unknown (matches Verilog's self-determined
    /// default for integers).
    pub fn width_of_var(&self, name: &str) -> usize {
        self.vars.get(name).map(|v| v.width).unwrap_or(32)
    }

    /// Names of the root module's input ports.
    pub fn inputs(&self) -> Vec<&VarInfo> {
        self.vars
            .values()
            .filter(|v| v.port == Some(PortDir::Input))
            .collect()
    }

    /// Names of the root module's output ports.
    pub fn outputs(&self) -> Vec<&VarInfo> {
        self.vars
            .values()
            .filter(|v| matches!(v.port, Some(PortDir::Output) | Some(PortDir::Inout)))
            .collect()
    }

    /// All register (stateful) variables.
    pub fn registers(&self) -> Vec<&VarInfo> {
        self.vars.values().filter(|v| v.is_register()).collect()
    }

    /// Total number of architectural state bits (sum over registers and memories).
    pub fn total_state_bits(&self) -> usize {
        self.registers().iter().map(|v| v.state_bits()).sum()
    }

    /// Computes the width of an expression in the context of this module.
    ///
    /// Memory element selects (`mem[i]` where `mem` is a 1-D memory) resolve to
    /// the element width rather than a single bit.
    pub fn width_of(&self, expr: &Expr) -> usize {
        if let Expr::Index(base, _) = expr {
            if let Expr::Ident(n) = base.as_ref() {
                if let Some(v) = self.vars.get(n) {
                    if v.depth.is_some() {
                        return v.width;
                    }
                }
            }
        }
        width_of(expr, &|name| self.vars.get(name).map(|v| v.width))
    }
}

/// Computes an expression's width given a variable-width lookup.
pub fn width_of(expr: &Expr, lookup: &dyn Fn(&str) -> Option<usize>) -> usize {
    match expr {
        Expr::Literal(b) => b.width(),
        Expr::StringLit(s) => (s.len() * 8).max(1),
        Expr::Ident(n) => lookup(n).unwrap_or(32),
        Expr::Index(base, _) => match base.as_ref() {
            // Memory element select keeps the element width; bit select is 1 bit.
            Expr::Ident(n) if lookup(n).is_some() => {
                // Scalar bit-select: 1. Memory selects are resolved by the
                // caller (interpreter) which knows about depths; default to the
                // element width so memory reads keep their width.
                1
            }
            _ => 1,
        },
        Expr::Slice(_, hi, lo) => {
            let hi = const_eval(hi, &|_| None).map(|b| b.to_u64()).unwrap_or(0);
            let lo = const_eval(lo, &|_| None).map(|b| b.to_u64()).unwrap_or(0);
            (hi.saturating_sub(lo) as usize) + 1
        }
        Expr::Unary(op, a) => match op {
            UnaryOp::Not | UnaryOp::Neg | UnaryOp::Plus => width_of(a, lookup),
            _ => 1,
        },
        Expr::Binary(op, a, b) => {
            if op.is_comparison() {
                1
            } else if matches!(op, BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr) {
                width_of(a, lookup)
            } else {
                width_of(a, lookup).max(width_of(b, lookup))
            }
        }
        Expr::Ternary(_, a, b) => width_of(a, lookup).max(width_of(b, lookup)),
        Expr::Concat(parts) => parts.iter().map(|p| width_of(p, lookup)).sum(),
        Expr::Replicate(n, e) => {
            let n = const_eval(n, &|_| None).map(|b| b.to_u64()).unwrap_or(1) as usize;
            n * width_of(e, lookup)
        }
        Expr::SystemCall(kind, _) => match kind {
            TaskKind::Feof => 1,
            TaskKind::Time => 64,
            _ => 32,
        },
    }
}

/// Elaborates `file` rooted at module `top`.
///
/// # Errors
///
/// Returns [`VlogError::Elaborate`] when the top module is missing, an instance
/// references an unknown module, a name is redeclared or undeclared, or a range
/// bound is not a compile-time constant.
pub fn elaborate(file: &SourceFile, top: &str) -> VlogResult<ElabModule> {
    let top_module = file
        .module(top)
        .ok_or_else(|| VlogError::Elaborate(format!("top module '{}' not found", top)))?;
    let mut elab = ElabModule {
        name: top.to_string(),
        ..Default::default()
    };
    let mut ctx = Ctx { file, depth: 0 };
    ctx.flatten(top_module, "", &mut elab, &BTreeMap::new())?;
    check_names(&elab)?;
    Ok(elab)
}

struct Ctx<'a> {
    file: &'a SourceFile,
    depth: usize,
}

const MAX_INSTANCE_DEPTH: usize = 32;

/// Largest variable width (bits) or memory depth (elements) elaboration
/// accepts: three orders of magnitude above every Table-1 and generated
/// design, and small enough that no hostile range makes a later stage
/// allocate or walk billions of bits.
pub const MAX_EXTENT: usize = 1 << 16;

/// The number of positions a constant `[msb:lsb]` range spans, either
/// direction, rejecting extents above [`MAX_EXTENT`].
fn range_extent(range: &Range, params: &BTreeMap<String, Bits>, what: &str) -> VlogResult<usize> {
    let bound = |e: &Expr| {
        const_eval(e, &|n| params.get(n).cloned())
            .ok_or_else(|| VlogError::Elaborate(format!("{} bound is not constant", what)))
            .and_then(|b| signed_bound(&b))
    };
    let span = (i128::from(bound(&range.msb)?) - i128::from(bound(&range.lsb)?)).unsigned_abs() + 1;
    if span > MAX_EXTENT as u128 {
        return Err(VlogError::Elaborate(format!(
            "{} of {} exceeds the limit of {}",
            what, span, MAX_EXTENT
        )));
    }
    Ok(span as usize)
}

/// A constant range bound as a signed integer. Unsized constants and
/// parameters are 32-bit signed integers, so values at least 32 bits wide
/// sign-extend from their top bit (a 32-bit `-3` is -3, not 4294967293);
/// narrower sized constants are unsigned.
fn signed_bound(b: &Bits) -> VlogResult<i64> {
    if b.width() < 32 {
        return Ok(b.to_u64() as i64);
    }
    let v = b.sign_extend(64).to_u64() as i64;
    if b.width() > 64 && Bits::from_u64(64, v as u64).sign_extend(b.width()) != *b {
        return Err(VlogError::Elaborate(
            "range bound does not fit 64 bits".into(),
        ));
    }
    Ok(v)
}

impl<'a> Ctx<'a> {
    /// Inlines `module` into `elab`, prefixing all local names with `prefix`.
    /// `port_map` maps the module's port names to already-declared parent names.
    fn flatten(
        &mut self,
        module: &Module,
        prefix: &str,
        elab: &mut ElabModule,
        port_map: &BTreeMap<String, String>,
    ) -> VlogResult<()> {
        if self.depth > MAX_INSTANCE_DEPTH {
            return Err(VlogError::Elaborate(format!(
                "instance nesting exceeds {} levels (recursive instantiation?)",
                MAX_INSTANCE_DEPTH
            )));
        }
        // Pass 1: collect parameters (constant fold in declaration order).
        let mut params: BTreeMap<String, Bits> = BTreeMap::new();
        for item in &module.items {
            if let Item::Param(p) = item {
                let v = const_eval(&p.value, &|n| params.get(n).cloned()).ok_or_else(|| {
                    VlogError::Elaborate(format!("parameter '{}' is not constant", p.name))
                })?;
                params.insert(p.name.clone(), v);
            }
        }

        // Renaming: local name -> flattened name.
        let rename = |name: &str| -> String {
            if let Some(mapped) = port_map.get(name) {
                mapped.clone()
            } else {
                format!("{}{}", prefix, name)
            }
        };

        // Pass 2: ports. For the root module, ports become variables. For nested
        // instances the port_map already routes them to parent nets, except
        // unconnected ports which become local nets.
        for port in &module.ports {
            let width = self.range_width(&port.range, &params)?;
            let flat = rename(&port.name);
            if port_map.contains_key(&port.name) {
                // Connected to a parent net: nothing to declare.
                continue;
            }
            let kind = if port.is_reg {
                NetKind::Reg
            } else {
                NetKind::Wire
            };
            let info = VarInfo {
                name: flat.clone(),
                kind,
                width,
                depth: None,
                init: None,
                non_volatile: false,
                port: if prefix.is_empty() {
                    Some(port.dir)
                } else {
                    None
                },
            };
            insert_var(elab, info)?;
        }

        // Pass 3: declarations, assigns, always/initial blocks, instances.
        for item in &module.items {
            match item {
                Item::Param(_) => {}
                Item::Decl(d) => {
                    let width = match d.kind {
                        NetKind::Integer => 32,
                        _ => self.range_width(&d.range, &params)?,
                    };
                    let depth = match &d.mem_range {
                        Some(r) => Some(self.mem_depth(r, &params)?),
                        None => None,
                    };
                    let flat = rename(&d.name);
                    let non_volatile = d.attributes.iter().any(|a| a.name == "non_volatile");
                    // If this declaration refines an existing port variable (e.g.
                    // `output reg [7:0] x;` plus `reg [7:0] x;`), merge instead of
                    // erroring.
                    let init_expr = d
                        .init
                        .as_ref()
                        .map(|e| self.rewrite_expr(e, &params, &rename));
                    // Re-declaring a port body (`output reg [7:0] x; ... reg [7:0] x;`)
                    // merges with the port variable; any other redeclaration is an error.
                    let redeclares_port = elab
                        .vars
                        .get(&flat)
                        .map(|v| v.port.is_some())
                        .unwrap_or(false);
                    if elab.vars.contains_key(&flat) && !redeclares_port {
                        return Err(VlogError::Elaborate(format!(
                            "variable '{}' declared more than once",
                            flat
                        )));
                    }
                    match d.kind {
                        NetKind::Wire => {
                            let existing = elab.vars.contains_key(&flat);
                            if !existing {
                                insert_var(
                                    elab,
                                    VarInfo {
                                        name: flat.clone(),
                                        kind: NetKind::Wire,
                                        width,
                                        depth,
                                        init: None,
                                        non_volatile,
                                        port: None,
                                    },
                                )?;
                            }
                            if let Some(e) = init_expr {
                                elab.assigns.push(Assign {
                                    lhs: LValue::Ident(flat),
                                    rhs: e,
                                });
                            }
                        }
                        NetKind::Reg | NetKind::Integer => {
                            // Constant initialisers become reset values. Non-constant
                            // initialisers (e.g. `integer fd = $fopen("...")`, as in
                            // Figure 2 of the paper) become an implicit initial block.
                            let mut init = None;
                            if let Some(e) = &init_expr {
                                match const_eval(e, &|n| params.get(n).cloned()) {
                                    Some(b) => init = Some(b.resize(width)),
                                    None => elab.initials.push(Stmt::Blocking(Assign {
                                        lhs: LValue::Ident(flat.clone()),
                                        rhs: e.clone(),
                                    })),
                                }
                            }
                            if let Some(existing) = elab.vars.get_mut(&flat) {
                                existing.kind = d.kind;
                                existing.init = init;
                                existing.non_volatile |= non_volatile;
                            } else {
                                insert_var(
                                    elab,
                                    VarInfo {
                                        name: flat,
                                        kind: d.kind,
                                        width,
                                        depth,
                                        init,
                                        non_volatile,
                                        port: None,
                                    },
                                )?;
                            }
                        }
                    }
                }
                Item::ContinuousAssign(a) => {
                    elab.assigns.push(Assign {
                        lhs: self.rewrite_lvalue(&a.lhs, &params, &rename),
                        rhs: self.rewrite_expr(&a.rhs, &params, &rename),
                    });
                }
                Item::Always(b) => {
                    elab.always.push(AlwaysBlock {
                        events: b
                            .events
                            .iter()
                            .map(|e| Event {
                                edge: e.edge,
                                expr: self.rewrite_expr(&e.expr, &params, &rename),
                            })
                            .collect(),
                        body: self.rewrite_stmt(&b.body, &params, &rename),
                    });
                }
                Item::Initial(s) => {
                    elab.initials.push(self.rewrite_stmt(s, &params, &rename));
                }
                Item::Instance(inst) => {
                    let sub = self.file.module(&inst.module).ok_or_else(|| {
                        VlogError::Elaborate(format!(
                            "instance '{}' references unknown module '{}'",
                            inst.name, inst.module
                        ))
                    })?;
                    let sub_prefix = format!("{}{}__", prefix, inst.name);
                    let mut sub_map = BTreeMap::new();
                    for (idx, conn) in inst.connections.iter().enumerate() {
                        let port = match &conn.port {
                            Some(p) => sub.port(p).ok_or_else(|| {
                                VlogError::Elaborate(format!(
                                    "module '{}' has no port '{}'",
                                    sub.name, p
                                ))
                            })?,
                            None => sub.ports.get(idx).ok_or_else(|| {
                                VlogError::Elaborate(format!(
                                    "too many positional connections on instance '{}'",
                                    inst.name
                                ))
                            })?,
                        };
                        let Some(expr) = &conn.expr else { continue };
                        let expr = self.rewrite_expr(expr, &params, &rename);
                        match expr {
                            // A plain identifier connection aliases the parent net.
                            Expr::Ident(parent_net) => {
                                sub_map.insert(port.name.clone(), parent_net);
                            }
                            other => {
                                // Create an intermediate net and a continuous assign.
                                let net = format!("{}{}", sub_prefix, port.name);
                                let width = self.range_width(&port.range, &params)?;
                                insert_var(
                                    elab,
                                    VarInfo {
                                        name: net.clone(),
                                        kind: NetKind::Wire,
                                        width,
                                        depth: None,
                                        init: None,
                                        non_volatile: false,
                                        port: None,
                                    },
                                )?;
                                match port.dir {
                                    PortDir::Input => elab.assigns.push(Assign {
                                        lhs: LValue::Ident(net.clone()),
                                        rhs: other,
                                    }),
                                    PortDir::Output | PortDir::Inout => {
                                        return Err(VlogError::Elaborate(format!(
                                            "output port '{}' of instance '{}' must connect to a simple net",
                                            port.name, inst.name
                                        )))
                                    }
                                }
                                sub_map.insert(port.name.clone(), net);
                            }
                        }
                    }
                    self.depth += 1;
                    self.flatten(sub, &sub_prefix, elab, &sub_map)?;
                    self.depth -= 1;
                }
            }
        }
        Ok(())
    }

    fn range_width(
        &self,
        range: &Option<Range>,
        params: &BTreeMap<String, Bits>,
    ) -> VlogResult<usize> {
        match range {
            None => Ok(1),
            Some(r) => range_extent(r, params, "width"),
        }
    }

    fn mem_depth(&self, range: &Range, params: &BTreeMap<String, Bits>) -> VlogResult<usize> {
        range_extent(range, params, "memory depth")
    }

    fn rewrite_expr(
        &self,
        expr: &Expr,
        params: &BTreeMap<String, Bits>,
        rename: &dyn Fn(&str) -> String,
    ) -> Expr {
        match expr {
            Expr::Ident(n) => {
                if let Some(v) = params.get(n) {
                    Expr::Literal(v.clone())
                } else {
                    Expr::Ident(rename(n))
                }
            }
            Expr::Literal(_) | Expr::StringLit(_) => expr.clone(),
            Expr::Index(a, b) => Expr::Index(
                Box::new(self.rewrite_expr(a, params, rename)),
                Box::new(self.rewrite_expr(b, params, rename)),
            ),
            Expr::Slice(a, b, c) => Expr::Slice(
                Box::new(self.rewrite_expr(a, params, rename)),
                Box::new(self.rewrite_expr(b, params, rename)),
                Box::new(self.rewrite_expr(c, params, rename)),
            ),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(self.rewrite_expr(a, params, rename))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(self.rewrite_expr(a, params, rename)),
                Box::new(self.rewrite_expr(b, params, rename)),
            ),
            Expr::Ternary(a, b, c) => Expr::Ternary(
                Box::new(self.rewrite_expr(a, params, rename)),
                Box::new(self.rewrite_expr(b, params, rename)),
                Box::new(self.rewrite_expr(c, params, rename)),
            ),
            Expr::Concat(parts) => Expr::Concat(
                parts
                    .iter()
                    .map(|p| self.rewrite_expr(p, params, rename))
                    .collect(),
            ),
            Expr::Replicate(n, e) => Expr::Replicate(
                Box::new(self.rewrite_expr(n, params, rename)),
                Box::new(self.rewrite_expr(e, params, rename)),
            ),
            Expr::SystemCall(k, args) => Expr::SystemCall(
                *k,
                args.iter()
                    .map(|a| self.rewrite_expr(a, params, rename))
                    .collect(),
            ),
        }
    }

    fn rewrite_lvalue(
        &self,
        lv: &LValue,
        params: &BTreeMap<String, Bits>,
        rename: &dyn Fn(&str) -> String,
    ) -> LValue {
        match lv {
            LValue::Ident(n) => LValue::Ident(rename(n)),
            LValue::Index(n, e) => LValue::Index(rename(n), self.rewrite_expr(e, params, rename)),
            LValue::Slice(n, a, b) => LValue::Slice(
                rename(n),
                self.rewrite_expr(a, params, rename),
                self.rewrite_expr(b, params, rename),
            ),
            LValue::Concat(parts) => LValue::Concat(
                parts
                    .iter()
                    .map(|p| self.rewrite_lvalue(p, params, rename))
                    .collect(),
            ),
        }
    }

    fn rewrite_stmt(
        &self,
        stmt: &Stmt,
        params: &BTreeMap<String, Bits>,
        rename: &dyn Fn(&str) -> String,
    ) -> Stmt {
        match stmt {
            Stmt::Block(stmts) => Stmt::Block(
                stmts
                    .iter()
                    .map(|s| self.rewrite_stmt(s, params, rename))
                    .collect(),
            ),
            Stmt::Fork(stmts) => Stmt::Fork(
                stmts
                    .iter()
                    .map(|s| self.rewrite_stmt(s, params, rename))
                    .collect(),
            ),
            Stmt::Blocking(a) => Stmt::Blocking(Assign {
                lhs: self.rewrite_lvalue(&a.lhs, params, rename),
                rhs: self.rewrite_expr(&a.rhs, params, rename),
            }),
            Stmt::NonBlocking(a) => Stmt::NonBlocking(Assign {
                lhs: self.rewrite_lvalue(&a.lhs, params, rename),
                rhs: self.rewrite_expr(&a.rhs, params, rename),
            }),
            Stmt::If { cond, then, other } => Stmt::If {
                cond: self.rewrite_expr(cond, params, rename),
                then: Box::new(self.rewrite_stmt(then, params, rename)),
                other: other
                    .as_ref()
                    .map(|s| Box::new(self.rewrite_stmt(s, params, rename))),
            },
            Stmt::Case {
                expr,
                arms,
                default,
            } => Stmt::Case {
                expr: self.rewrite_expr(expr, params, rename),
                arms: arms
                    .iter()
                    .map(|arm| CaseArm {
                        labels: arm
                            .labels
                            .iter()
                            .map(|l| self.rewrite_expr(l, params, rename))
                            .collect(),
                        body: self.rewrite_stmt(&arm.body, params, rename),
                    })
                    .collect(),
                default: default
                    .as_ref()
                    .map(|s| Box::new(self.rewrite_stmt(s, params, rename))),
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => Stmt::For {
                init: Box::new(Assign {
                    lhs: self.rewrite_lvalue(&init.lhs, params, rename),
                    rhs: self.rewrite_expr(&init.rhs, params, rename),
                }),
                cond: self.rewrite_expr(cond, params, rename),
                step: Box::new(Assign {
                    lhs: self.rewrite_lvalue(&step.lhs, params, rename),
                    rhs: self.rewrite_expr(&step.rhs, params, rename),
                }),
                body: Box::new(self.rewrite_stmt(body, params, rename)),
            },
            Stmt::Repeat { count, body } => Stmt::Repeat {
                count: self.rewrite_expr(count, params, rename),
                body: Box::new(self.rewrite_stmt(body, params, rename)),
            },
            Stmt::SystemTask(t) => Stmt::SystemTask(SystemTask {
                kind: t.kind,
                args: t
                    .args
                    .iter()
                    .map(|a| self.rewrite_expr(a, params, rename))
                    .collect(),
            }),
            Stmt::Null => Stmt::Null,
        }
    }
}

fn insert_var(elab: &mut ElabModule, info: VarInfo) -> VlogResult<()> {
    if elab.vars.contains_key(&info.name) {
        return Err(VlogError::Elaborate(format!(
            "variable '{}' declared more than once",
            info.name
        )));
    }
    elab.vars.insert(info.name.clone(), info);
    Ok(())
}

/// Checks that every identifier referenced in the design is declared.
fn check_names(elab: &ElabModule) -> VlogResult<()> {
    let check_expr = |e: &Expr| -> VlogResult<()> {
        for id in e.idents() {
            if !elab.vars.contains_key(id) && !id.starts_with('`') {
                return Err(VlogError::Elaborate(format!(
                    "undeclared identifier '{}'",
                    id
                )));
            }
        }
        Ok(())
    };
    fn check_stmt(elab: &ElabModule, s: &Stmt) -> VlogResult<()> {
        let check_expr = |e: &Expr| -> VlogResult<()> {
            for id in e.idents() {
                if !elab.vars.contains_key(id) && !id.starts_with('`') {
                    return Err(VlogError::Elaborate(format!(
                        "undeclared identifier '{}'",
                        id
                    )));
                }
            }
            Ok(())
        };
        let check_lvalue = |lv: &LValue| -> VlogResult<()> {
            for t in lv.targets() {
                if !elab.vars.contains_key(t) {
                    return Err(VlogError::Elaborate(format!(
                        "assignment to undeclared variable '{}'",
                        t
                    )));
                }
            }
            Ok(())
        };
        match s {
            Stmt::Block(v) | Stmt::Fork(v) => v.iter().try_for_each(|s| check_stmt(elab, s)),
            Stmt::Blocking(a) | Stmt::NonBlocking(a) => {
                check_lvalue(&a.lhs)?;
                check_expr(&a.rhs)
            }
            Stmt::If { cond, then, other } => {
                check_expr(cond)?;
                check_stmt(elab, then)?;
                other.as_ref().map_or(Ok(()), |s| check_stmt(elab, s))
            }
            Stmt::Case {
                expr,
                arms,
                default,
            } => {
                check_expr(expr)?;
                for arm in arms {
                    arm.labels.iter().try_for_each(&check_expr)?;
                    check_stmt(elab, &arm.body)?;
                }
                default.as_ref().map_or(Ok(()), |s| check_stmt(elab, s))
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                check_lvalue(&init.lhs)?;
                check_expr(&init.rhs)?;
                check_expr(cond)?;
                check_lvalue(&step.lhs)?;
                check_expr(&step.rhs)?;
                check_stmt(elab, body)
            }
            Stmt::Repeat { count, body } => {
                check_expr(count)?;
                check_stmt(elab, body)
            }
            Stmt::SystemTask(t) => t.args.iter().try_for_each(&check_expr),
            Stmt::Null => Ok(()),
        }
    }
    for a in &elab.assigns {
        check_expr(&a.rhs)?;
        for t in a.lhs.targets() {
            if !elab.vars.contains_key(t) {
                return Err(VlogError::Elaborate(format!(
                    "continuous assignment to undeclared variable '{}'",
                    t
                )));
            }
        }
    }
    for b in &elab.always {
        for e in &b.events {
            check_expr(&e.expr)?;
        }
        check_stmt(elab, &b.body)?;
    }
    for s in &elab.initials {
        check_stmt(elab, s)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn elaborates_counter() {
        let m = compile(
            r#"
            module Counter(input wire clock, output wire [7:0] out);
                reg [7:0] count = 8'd5;
                always @(posedge clock) count <= count + 1;
                assign out = count;
            endmodule
        "#,
            "Counter",
        )
        .unwrap();
        assert_eq!(m.vars["count"].width, 8);
        assert_eq!(m.vars["count"].init.as_ref().unwrap().to_u64(), 5);
        assert_eq!(m.vars["out"].port, Some(PortDir::Output));
        assert_eq!(m.always.len(), 1);
        assert_eq!(m.assigns.len(), 1);
        assert_eq!(m.total_state_bits(), 8);
    }

    #[test]
    fn negative_range_bounds_sign_extend() {
        let src = "module M(input wire clock); reg [-3:0] x; reg [7:0] m [0:-1]; endmodule";
        let m = compile(src, "M").unwrap();
        assert_eq!(m.vars["x"].width, 4);
        assert_eq!(m.vars["m"].depth, Some(2));
        // Sized constants narrower than 32 bits stay unsigned.
        let m = compile(
            "module M(input wire clock); reg [4'd13:0] x; endmodule",
            "M",
        )
        .unwrap();
        assert_eq!(m.vars["x"].width, 14);
    }

    #[test]
    fn oversized_widths_and_depths_are_rejected() {
        for src in [
            "module M(input wire clock); reg [65536:0] x; endmodule",
            "module M(input wire clock); reg [7:0] m [0:65536]; endmodule",
            "module M(input wire clock); reg [7:0] m [0:65'h1_0000_0000_0000_0000]; endmodule",
        ] {
            assert!(
                matches!(compile(src, "M"), Err(VlogError::Elaborate(_))),
                "{}",
                src
            );
        }
        let at_limit = format!(
            "module M(input wire clock); reg [{}:0] x; endmodule",
            MAX_EXTENT - 1
        );
        assert_eq!(compile(&at_limit, "M").unwrap().vars["x"].width, MAX_EXTENT);
    }

    #[test]
    fn wire_initialisers_become_assigns() {
        let m = compile(
            r#"
            module M(input wire clock);
                wire [31:0] x = 1, y = x + 1;
            endmodule
        "#,
            "M",
        )
        .unwrap();
        assert_eq!(m.assigns.len(), 2);
        assert_eq!(m.vars["x"].kind, NetKind::Wire);
    }

    #[test]
    fn parameters_fold_into_literals() {
        let m = compile(
            r#"
            module M(input wire clock);
                parameter WIDTH = 16;
                localparam DEPTH = WIDTH * 2;
                reg [WIDTH-1:0] data = 0;
                reg [7:0] mem [0:DEPTH-1];
            endmodule
        "#,
            "M",
        )
        .unwrap();
        assert_eq!(m.vars["data"].width, 16);
        assert_eq!(m.vars["mem"].depth, Some(32));
    }

    #[test]
    fn flattens_instances() {
        let m = compile(
            r#"
            module Sub(input wire clock, input wire [7:0] a, output wire [7:0] b);
                reg [7:0] acc = 0;
                always @(posedge clock) acc <= acc + a;
                assign b = acc;
            endmodule
            module Top(input wire clock, output wire [7:0] out);
                wire [7:0] doubled = 2;
                Sub s(.clock(clock), .a(doubled), .b(out));
            endmodule
        "#,
            "Top",
        )
        .unwrap();
        assert!(
            m.vars.contains_key("s__acc"),
            "sub reg should be prefixed: {:?}",
            m.vars.keys()
        );
        assert_eq!(m.always.len(), 1);
        // `out` is aliased to the sub's port, so the sub's assign drives it.
        assert!(m.assigns.iter().any(|a| a.lhs.targets() == vec!["out"]));
    }

    #[test]
    fn positional_connections_work() {
        let m = compile(
            r#"
            module Sub(input wire clock, input wire [7:0] a);
                reg [7:0] r = 0;
                always @(posedge clock) r <= a;
            endmodule
            module Top(input wire clock);
                wire [7:0] x = 3;
                Sub s(clock, x);
            endmodule
        "#,
            "Top",
        )
        .unwrap();
        assert!(m.vars.contains_key("s__r"));
    }

    #[test]
    fn expression_connections_create_nets() {
        let m = compile(
            r#"
            module Sub(input wire [7:0] a);
                wire [7:0] w = a;
            endmodule
            module Top(input wire clock);
                wire [7:0] x = 3;
                Sub s(.a(x + 1));
            endmodule
        "#,
            "Top",
        )
        .unwrap();
        assert!(m.vars.contains_key("s__a"));
        assert!(m.assigns.iter().any(|a| a.lhs.targets() == vec!["s__a"]));
    }

    #[test]
    fn missing_module_is_an_error() {
        let err = compile("module Top(); Sub s(); endmodule", "Top").unwrap_err();
        assert!(matches!(err, VlogError::Elaborate(_)));
        let err = compile("module Top(); endmodule", "Missing").unwrap_err();
        assert!(format!("{}", err).contains("not found"));
    }

    #[test]
    fn undeclared_identifier_is_an_error() {
        let err = compile(
            "module M(input wire clock); always @(posedge clock) x <= 1; endmodule",
            "M",
        )
        .unwrap_err();
        assert!(format!("{}", err).contains("undeclared"));
    }

    #[test]
    fn duplicate_declaration_is_an_error() {
        let err =
            compile("module M(input wire clock); wire a; wire a; endmodule", "M").unwrap_err();
        assert!(format!("{}", err).contains("more than once"));
    }

    #[test]
    fn non_volatile_attribute_is_recorded() {
        let m = compile(
            r#"
            module M(input wire clock);
                (* non_volatile *) reg [31:0] x = 0;
                reg [31:0] y = 0;
            endmodule
        "#,
            "M",
        )
        .unwrap();
        assert!(m.vars["x"].non_volatile);
        assert!(!m.vars["y"].non_volatile);
    }

    #[test]
    fn width_of_expressions() {
        let m = compile(
            r#"
            module M(input wire clock);
                reg [15:0] a = 0;
                reg [7:0] b = 0;
            endmodule
        "#,
            "M",
        )
        .unwrap();
        let e = crate::parser::parse_expr("a + b").unwrap();
        assert_eq!(m.width_of(&e), 16);
        let e = crate::parser::parse_expr("a == b").unwrap();
        assert_eq!(m.width_of(&e), 1);
        let e = crate::parser::parse_expr("{a, b}").unwrap();
        assert_eq!(m.width_of(&e), 24);
        let e = crate::parser::parse_expr("a[11:4]").unwrap();
        assert_eq!(m.width_of(&e), 8);
    }

    #[test]
    fn total_state_bits_counts_memories() {
        let m = compile(
            r#"
            module M(input wire clock);
                reg [31:0] r = 0;
                reg [7:0] mem [0:255];
            endmodule
        "#,
            "M",
        )
        .unwrap();
        assert_eq!(m.total_state_bits(), 32 + 8 * 256);
    }
}
