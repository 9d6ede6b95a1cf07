//! The Mul-T evaluator: the reference interpreter, which can also
//! record the task graph of Figure 4's trace-driven path.
//!
//! Direct-style evaluation of the AST with sequential future semantics
//! (a `future` evaluates its body in place, exactly the deterministic
//! value every parallel schedule must produce). The compiler and
//! run-time system are differentially tested against this oracle in
//! `tests/differential.rs`.
//!
//! [`trace_program`] runs the same evaluator with a recorder: each
//! `future` becomes a task, each `eval` one work unit of the running
//! task, and each strict use of a future's value a touch of its task
//! (see [`crate::trace`]).

use crate::ast::{Definition, Expr, Prim, ProgramAst};
use crate::trace::{ParallelTrace, TaskTrace, TraceEvent};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A Mul-T value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Fixnum.
    Int(i32),
    /// Boolean.
    Bool(bool),
    /// The empty list.
    Nil,
    /// A pair.
    Pair(Rc<(Value, Value)>),
    /// A vector.
    Vector(Rc<RefCell<Vec<Value>>>),
    /// A closure: parameters, body, captured environment.
    Closure(Rc<ClosureVal>),
    /// A recorded future: the task that computed it and its value.
    /// Only a recording run builds one.
    Future(Rc<(usize, Value)>),
}

/// A closure value.
#[derive(Debug)]
pub struct ClosureVal {
    /// Parameter names.
    pub params: Vec<String>,
    /// Body expressions.
    pub body: Vec<Expr>,
    /// Captured environment.
    pub env: Env,
}

type Env = Rc<EnvNode>;

/// A linked environment frame.
#[derive(Debug)]
pub enum EnvNode {
    /// The empty environment.
    Empty,
    /// One binding on top of a parent environment.
    Bind(String, RefCell<Value>, Env),
}

fn lookup(env: &Env, name: &str) -> Option<Value> {
    let mut cur = env;
    loop {
        match &**cur {
            EnvNode::Empty => return None,
            EnvNode::Bind(n, v, parent) => {
                if n == name {
                    return Some(v.borrow().clone());
                }
                cur = parent;
            }
        }
    }
}

fn bind(env: &Env, name: &str, v: Value) -> Env {
    Rc::new(EnvNode::Bind(
        name.to_string(),
        RefCell::new(v),
        env.clone(),
    ))
}

impl Value {
    /// Scheme truthiness.
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// The fixnum, if this is one.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Nil, Value::Nil) => true,
            (Value::Pair(a), Value::Pair(b)) => Rc::ptr_eq(a, b),
            (Value::Vector(a), Value::Vector(b)) => Rc::ptr_eq(a, b),
            (Value::Closure(a), Value::Closure(b)) => Rc::ptr_eq(a, b),
            (Value::Future(a), Value::Future(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "#{}", if *b { "t" } else { "f" }),
            Value::Nil => write!(f, "()"),
            Value::Pair(p) => write!(f, "({} . {})", p.0, p.1),
            Value::Vector(v) => write!(f, "#({} elems)", v.borrow().len()),
            Value::Closure(_) => write!(f, "#<procedure>"),
            Value::Future(t) => write!(f, "#<future {}: {}>", t.0, t.1),
        }
    }
}

/// Interpreter failure (a dynamic type or arity error in the program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError(pub String);

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for InterpError {}

/// The interpreter: global definitions plus collected `print` output.
pub struct Interp {
    globals: HashMap<String, Definition>,
    /// Values printed, in order.
    pub prints: Vec<Value>,
    fuel: u64,
    depth: u32,
    rec: Option<Recorder>,
}

/// The task graph being recorded: the running task, and the fuel left
/// when its open segment began (one unit per `eval`).
struct Recorder {
    trace: ParallelTrace,
    task: usize,
    mark: u64,
}

impl Interp {
    /// Prepares to run `ast`.
    pub fn new(ast: &ProgramAst) -> Interp {
        Interp {
            globals: ast
                .defs
                .iter()
                .map(|d| (d.name.clone(), d.clone()))
                .collect(),
            prints: Vec::new(),
            fuel: 200_000_000,
            depth: 0,
            rec: None,
        }
    }

    /// Runs `(main)`.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on dynamic errors or fuel exhaustion.
    pub fn run(&mut self) -> Result<Value, InterpError> {
        let main = self
            .globals
            .get("main")
            .cloned()
            .ok_or_else(|| InterpError("no main".into()))?;
        let v = self.call_def(&main, Vec::new())?;
        let v = self.strict(v);
        self.close_segment();
        Ok(v)
    }

    /// Ends the running task's open segment, when recording, and
    /// returns that task.
    fn close_segment(&mut self) -> Option<&mut TaskTrace> {
        let r = self.rec.as_mut()?;
        let task = &mut r.trace.tasks[r.task];
        task.segments.push(r.mark - self.fuel);
        r.mark = self.fuel;
        Some(task)
    }

    /// A strict use of `v`: a future is touched, recording the edge, and
    /// yields its value.
    fn strict(&mut self, v: Value) -> Value {
        let Value::Future(f) = v else { return v };
        let task = self.close_segment().expect("only recording makes futures");
        task.events.push(TraceEvent::Touch(f.0));
        f.1.clone()
    }

    fn call_def(&mut self, d: &Definition, args: Vec<Value>) -> Result<Value, InterpError> {
        if d.params.len() != args.len() {
            return Err(InterpError(format!(
                "{} expects {} args",
                d.name,
                d.params.len()
            )));
        }
        let mut env: Env = Rc::new(EnvNode::Empty);
        for (p, a) in d.params.iter().zip(args) {
            env = bind(&env, p, a);
        }
        self.eval_body(&d.body, &env)
    }

    fn eval_body(&mut self, body: &[Expr], env: &Env) -> Result<Value, InterpError> {
        if self.depth > 250 {
            return Err(InterpError("recursion too deep".into()));
        }
        self.depth += 1;
        let last = body
            .iter()
            .try_fold(Value::Bool(false), |_, e| self.eval(e, env));
        self.depth -= 1;
        last
    }

    fn eval(&mut self, e: &Expr, env: &Env) -> Result<Value, InterpError> {
        self.fuel = self
            .fuel
            .checked_sub(1)
            .ok_or_else(|| InterpError("interpreter fuel exhausted".into()))?;
        match e {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Nil => Ok(Value::Nil),
            Expr::Var(name) => {
                if let Some(v) = lookup(env, name) {
                    return Ok(v);
                }
                if let Some(d) = self.globals.get(name) {
                    return Ok(Value::Closure(Rc::new(ClosureVal {
                        params: d.params.clone(),
                        body: d.body.clone(),
                        env: Rc::new(EnvNode::Empty),
                    })));
                }
                Err(InterpError(format!("unbound variable {name}")))
            }
            Expr::If(c, t, f) => {
                let c = self.eval(c, env)?;
                if self.strict(c).is_truthy() {
                    self.eval(t, env)
                } else {
                    self.eval(f, env)
                }
            }
            Expr::Let(binds, body) => {
                let mut env = env.clone();
                for (n, init) in binds {
                    let v = self.eval(init, &env)?;
                    env = bind(&env, n, v);
                }
                self.eval_body(body, &env)
            }
            Expr::Begin(es) => self.eval_body(es, env),
            Expr::And(es) | Expr::Or(es) => {
                // `and` stops at the first false operand, `or` at the
                // first true one.
                let or = matches!(e, Expr::Or(_));
                let mut last = Value::Bool(!or);
                for x in es {
                    let v = self.eval(x, env)?;
                    last = self.strict(v);
                    if last.is_truthy() == or {
                        break;
                    }
                }
                Ok(last)
            }
            Expr::Lambda(params, body) => Ok(Value::Closure(Rc::new(ClosureVal {
                params: params.clone(),
                body: body.clone(),
                env: env.clone(),
            }))),
            Expr::Call(f, args) => {
                // Direct global call avoids building a closure value.
                if let Expr::Var(name) = &**f {
                    if lookup(env, name).is_none() {
                        if let Some(d) = self.globals.get(name).cloned() {
                            let args = args
                                .iter()
                                .map(|a| self.eval(a, env))
                                .collect::<Result<Vec<_>, _>>()?;
                            return self.call_def(&d, args);
                        }
                    }
                }
                let fv = self.eval(f, env)?;
                let args = args
                    .iter()
                    .map(|a| self.eval(a, env))
                    .collect::<Result<Vec<_>, _>>()?;
                match self.strict(fv) {
                    Value::Closure(c) => {
                        if c.params.len() != args.len() {
                            return Err(InterpError("arity mismatch".into()));
                        }
                        let mut env = c.env.clone();
                        for (p, a) in c.params.iter().zip(args) {
                            env = bind(&env, p, a);
                        }
                        self.eval_body(&c.body, &env)
                    }
                    other => Err(InterpError(format!("call of non-procedure {other}"))),
                }
            }
            Expr::Prim(p, args) => {
                let args = args
                    .iter()
                    .map(|a| self.eval(a, env))
                    .collect::<Result<Vec<_>, _>>()?;
                self.prim(*p, args)
            }
            // Sequential future semantics: evaluate in place, as the
            // child task when recording.
            Expr::Future(e, on) => {
                if let Some(node) = on {
                    self.eval(node, env)?;
                }
                let Some(r) = &mut self.rec else {
                    return self.eval(e, env);
                };
                let (parent, child) = (r.task, r.trace.tasks.len());
                r.trace.tasks.push(TaskTrace::default());
                let task = self.close_segment().expect("recording");
                task.events.push(TraceEvent::Spawn(child));
                self.rec.as_mut().expect("recording").task = child;
                let v = self.eval(e, env)?;
                let v = self.strict(v);
                self.close_segment();
                self.rec.as_mut().expect("recording").task = parent;
                Ok(Value::Future(Rc::new((child, v))))
            }
            Expr::Touch(e) => {
                let v = self.eval(e, env)?;
                Ok(self.strict(v))
            }
        }
    }

    fn prim(&mut self, p: Prim, args: Vec<Value>) -> Result<Value, InterpError> {
        // Every operand is strict but `cons`'s, which stores a future's
        // value without a touch: the trace loses that edge, one reason
        // §7 prefers execution-driven simulation.
        let args: Vec<Value> = args
            .into_iter()
            .map(|a| match a {
                Value::Future(f) if p == Prim::Cons => f.1.clone(),
                a => self.strict(a),
            })
            .collect();
        let int = |v: &Value| {
            v.as_int()
                .ok_or_else(|| InterpError(format!("expected fixnum, got {v}")))
        };
        Ok(match p {
            Prim::Add => Value::Int(wrap30(int(&args[0])? as i64 + int(&args[1])? as i64)),
            Prim::Sub => Value::Int(wrap30(int(&args[0])? as i64 - int(&args[1])? as i64)),
            Prim::Mul => Value::Int(wrap30(int(&args[0])? as i64 * int(&args[1])? as i64)),
            Prim::Quotient => {
                let d = int(&args[1])?;
                if d == 0 {
                    return Err(InterpError("divide by zero".into()));
                }
                Value::Int(wrap30((int(&args[0])? / d) as i64))
            }
            Prim::Remainder => {
                let d = int(&args[1])?;
                if d == 0 {
                    return Err(InterpError("divide by zero".into()));
                }
                Value::Int(wrap30((int(&args[0])? % d) as i64))
            }
            Prim::Lt => Value::Bool(int(&args[0])? < int(&args[1])?),
            Prim::Le => Value::Bool(int(&args[0])? <= int(&args[1])?),
            Prim::Gt => Value::Bool(int(&args[0])? > int(&args[1])?),
            Prim::Ge => Value::Bool(int(&args[0])? >= int(&args[1])?),
            Prim::NumEq => Value::Bool(int(&args[0])? == int(&args[1])?),
            Prim::Eq => Value::Bool(args[0] == args[1]),
            Prim::Not => Value::Bool(!args[0].is_truthy()),
            Prim::Cons => Value::Pair(Rc::new((args[0].clone(), args[1].clone()))),
            Prim::Car => match &args[0] {
                Value::Pair(p) => p.0.clone(),
                other => return Err(InterpError(format!("car of {other}"))),
            },
            Prim::Cdr => match &args[0] {
                Value::Pair(p) => p.1.clone(),
                other => return Err(InterpError(format!("cdr of {other}"))),
            },
            Prim::NullP => Value::Bool(matches!(args[0], Value::Nil)),
            Prim::PairP => Value::Bool(matches!(args[0], Value::Pair(_))),
            Prim::MakeVector => {
                let n = int(&args[0])?;
                if n < 0 {
                    return Err(InterpError("negative vector length".into()));
                }
                Value::Vector(Rc::new(RefCell::new(vec![args[1].clone(); n as usize])))
            }
            Prim::VectorRef => match &args[0] {
                Value::Vector(v) => {
                    let i = int(&args[1])? as usize;
                    v.borrow()
                        .get(i)
                        .cloned()
                        .ok_or_else(|| InterpError("vector index out of range".into()))?
                }
                other => return Err(InterpError(format!("vector-ref of {other}"))),
            },
            Prim::VectorSet => match &args[0] {
                Value::Vector(v) => {
                    let i = int(&args[1])? as usize;
                    let mut v = v.borrow_mut();
                    if i >= v.len() {
                        return Err(InterpError("vector index out of range".into()));
                    }
                    v[i] = args[2].clone();
                    args[2].clone()
                }
                other => return Err(InterpError(format!("vector-set! of {other}"))),
            },
            Prim::VectorLength => match &args[0] {
                Value::Vector(v) => Value::Int(v.borrow().len() as i32),
                other => return Err(InterpError(format!("vector-length of {other}"))),
            },
            Prim::Print => {
                self.prints.push(args[0].clone());
                args[0].clone()
            }
        })
    }
}

/// Wraps to the 30-bit fixnum range, matching the hardware's tagged
/// arithmetic (which truncates to the 30-bit field).
fn wrap30(v: i64) -> i32 {
    ((v << 2) as i32) >> 2
}

/// Parses and interprets `src`, returning `(main)`'s value.
///
/// # Errors
///
/// Returns [`InterpError`] on front-end or dynamic errors.
pub fn interpret(src: &str) -> Result<Value, InterpError> {
    let ast = crate::ast::parse_program(src).map_err(|e| InterpError(e.to_string()))?;
    Interp::new(&ast).run()
}

/// Parses and interprets `src`, recording the task graph (task 0 is
/// `main`) along with `(main)`'s value.
///
/// # Errors
///
/// As for [`interpret`].
pub fn trace_program(src: &str) -> Result<(ParallelTrace, Value), InterpError> {
    let ast = crate::ast::parse_program(src).map_err(|e| InterpError(e.to_string()))?;
    trace_ast(&ast)
}

/// Interprets an already-parsed program, recording its task graph.
///
/// # Errors
///
/// As for [`interpret`].
pub fn trace_ast(ast: &ProgramAst) -> Result<(ParallelTrace, Value), InterpError> {
    let mut interp = Interp::new(ast);
    interp.rec = Some(Recorder {
        trace: ParallelTrace {
            tasks: vec![TaskTrace::default()],
        },
        task: 0,
        mark: interp.fuel,
    });
    let v = interp.run()?;
    Ok((interp.rec.expect("recording").trace, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: &str) -> Value {
        interpret(src).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn arithmetic_and_structures() {
        assert_eq!(ev("(define (main) (+ 1 (* 2 3)))"), Value::Int(7));
        assert_eq!(ev("(define (main) (car (cons 1 2)))"), Value::Int(1));
        assert_eq!(
            ev("(define (main) (vector-ref (make-vector 3 9) 2))"),
            Value::Int(9)
        );
    }

    #[test]
    fn fib_matches_closed_form() {
        let src =
            "(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
                   (define (main) (fib 12))";
        assert_eq!(ev(src), Value::Int(144));
    }

    #[test]
    fn closures_capture_lexically() {
        assert_eq!(
            ev("(define (adder n) (lambda (x) (+ x n)))
                (define (main) ((adder 3) ((adder 4) 10)))"),
            Value::Int(17)
        );
    }

    #[test]
    fn fixnum_wraparound_matches_hardware() {
        // 2^29 overflows the 30-bit fixnum and wraps negative, exactly
        // like the tagged hardware add.
        let v = ev("(define (main) (+ 536870911 1))");
        assert_eq!(v, Value::Int(-(1 << 29)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(interpret("(define (main) (car 5))").is_err());
        assert!(interpret("(define (main) (quotient 1 0))").is_err());
        assert!(interpret("(define (main) (f))").is_err());
    }

    #[test]
    fn infinite_recursion_is_caught() {
        let e = interpret("(define (loop) (loop)) (define (main) (loop))").unwrap_err();
        assert!(e.0.contains("too deep"));
    }

    #[test]
    fn prints_collect() {
        let ast =
            crate::ast::parse_program("(define (main) (begin (print 1) (print (cons 1 2)) 0))")
                .unwrap();
        let mut i = Interp::new(&ast);
        i.run().unwrap();
        assert_eq!(i.prints.len(), 2);
        assert_eq!(i.prints[0], Value::Int(1));
    }
}
